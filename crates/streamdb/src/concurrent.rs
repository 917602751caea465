//! Concurrent serving: ingest and query at the same time.
//!
//! [`ShardedEngine`] parallelizes *one batch* but still stops the world
//! around it — `process_batch` takes `&mut self`, so `report()` cannot run
//! until the batch finishes. [`ConcurrentEngine`] removes that coupling
//! with the recipe of "Fast Concurrent Data Sketches" (Rinberg et al.),
//! generalized from one sketch (`sketches-concurrent`'s
//! `BufferedConcurrent`) to whole per-shard GROUP BY state:
//!
//! * **Long-lived shard workers.** N worker threads, each *owning* a
//!   complete [`SketchEngine`] shard for the engine's whole lifetime
//!   (not scoped per batch). A coordinator thread serializes mutating
//!   commands and runs the same batch protocol (the crate-private
//!   `Router`) as [`ShardedEngine`], so per-group results stay
//!   *identical* to the sequential engine.
//! * **Submit/poll ingest.** [`ConcurrentEngine::submit_batch`] takes
//!   `&self`, enqueues the batch, and returns a [`BatchTicket`];
//!   [`BatchTicket::poll`] / [`BatchTicket::wait`] resolve it to the same
//!   [`BatchSummary`] / [`BatchError`] the synchronous engines report,
//!   with batch-level rollback and quarantine semantics preserved.
//! * **One published generation.** When a job changes shard state (a
//!   commit, flush or merge), every worker cuts an immutable copy of its
//!   shard plus its slim [`EngineView`] — in parallel — and returns the
//!   cut in its reply. Once every shard has replied, the coordinator
//!   swaps one `Generation` (all shard cuts, the router state, and a
//!   sequence number) into a single shared slot, then answers the job.
//!   Reads — [`ReadHandle::report`], [`ReadHandle::query_view`],
//!   metrics, snapshots — clone that one `Arc` (a pointer copy under a
//!   lock held only for the copy) and never touch worker state, so
//!   queries are never blocked behind ingest work and ingest never waits
//!   for readers. [`ConcurrentEngine`]'s read methods forward to its own
//!   [`ReadHandle`].
//!
//! # Consistency model
//!
//! Reads serve the **latest published generation**: a prefix of the
//! submitted stream, cut at one committed-batch boundary on every shard
//! at once. The lag is bounded by what is queued plus in flight — at most
//! the submit-queue capacity plus one resolving batch — and is exported
//! as the `publish_lag_rows` gauge. A batch is published *before* its
//! ticket resolves, so once [`BatchTicket::wait`] returns, every
//! subsequent read observes that batch. At quiescence (all tickets
//! resolved) reports are **byte-identical** to a [`SketchEngine`] fed the
//! same rows, and snapshots are byte-identical to a [`ShardedEngine`]
//! with the same shard count — experiment E25 asserts both.
//!
//! # Failure model
//!
//! Worker panics during ingest are contained per batch (the shared
//! `worker_ingest` supervisor) and roll the whole batch back. If a
//! worker or the coordinator *thread* dies outright, the engine is
//! **poisoned** ([`ConcurrentEngine::is_poisoned`]) before any of the
//! dying thread's channels disconnect: outstanding and future tickets
//! resolve to a typed [`BatchError`], mutating calls become typed errors
//! or no-ops, and reads keep serving the last published generation —
//! degraded to read-only rather than wedged.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel;
use parking_lot::RwLock;
use sketches_core::{SketchError, SketchResult};
use sketches_obs::{Clock, MetricsSnapshot, Stage, TraceContext};

use crate::engine::{EngineConfig, SketchEngine};
use crate::fault::{
    BatchCause, BatchError, BatchSummary, DeadLetters, FaultInjector, FaultPolicy,
    INJECTED_PANIC_MARKER,
};
use crate::metrics::names;
use crate::query::{AggregateResult, QuerySpec};
use crate::sharded::{
    shard_of, worker_ingest, Router, ShardedEngine, WindowRows, WorkerOutcome,
    DEFAULT_CHANNEL_DEPTH,
};
use crate::value::{Row, Value};
use crate::view::EngineView;

/// Capacity of the submit queue, in batches. Submitting beyond it blocks
/// the caller (backpressure), which also bounds read lag: at most this
/// many batches plus the one being resolved can be invisible to readers.
const SUBMIT_QUEUE_DEPTH: usize = 32;

/// Capacity of each worker's command channel. Commands are coarse (one
/// per batch phase), so a small buffer keeps the coordinator from
/// blocking on hand-off without queueing meaningful work.
const WORKER_CMD_DEPTH: usize = 4;

/// How often a blocking [`BatchTicket::wait`] re-checks the poisoned
/// flag. A live engine resolves the ticket through the channel and never
/// waits a full tick; the tick only bounds how long a wait on a *dead*
/// engine can linger before it resolves to the typed poisoned error.
const POISON_POLL: Duration = Duration::from_millis(25);

/// The typed error every ticket and mutating call resolves to once the
/// engine is poisoned (a worker or coordinator thread died).
fn poisoned_batch_error() -> BatchError {
    BatchError {
        row: None,
        shard: None,
        cause: BatchCause::WorkerPanic(
            "concurrent engine poisoned: a worker or coordinator thread died".to_string(),
        ),
    }
}

fn poisoned_sketch_error() -> SketchError {
    SketchError::incompatible("concurrent engine poisoned: a worker or coordinator thread died")
}

/// Read-side state shared between the engine handle, its read handles,
/// the coordinator, and the workers. Everything here is either atomic or
/// swapped under a lock held only for the pointer exchange.
#[derive(Debug)]
struct Shared {
    /// The latest published generation. The write lock is held only for
    /// an `Arc` swap, the read lock only for an `Arc` clone, so readers
    /// and the coordinator exchange a pointer, never sketch work.
    generation: RwLock<Arc<Generation>>,
    /// Rows handed to `submit_batch` so far.
    rows_submitted: AtomicU64,
    /// Rows whose batch has resolved (committed *or* rolled back).
    rows_resolved: AtomicU64,
    /// Ingest jobs submitted but not yet resolved.
    queue_depth: AtomicU64,
    /// Set when a worker or the coordinator thread dies.
    poisoned: AtomicBool,
}

impl Shared {
    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }
}

/// One shard's published state: an immutable copy of the shard and the
/// slim view cut from it at the same instant.
#[derive(Debug)]
struct ShardCut {
    engine: SketchEngine,
    view: EngineView,
}

impl ShardCut {
    fn of(shard: &SketchEngine) -> Arc<Self> {
        Arc::new(Self {
            engine: shard.clone(),
            view: shard.query_view(),
        })
    }
}

/// One published cut of the whole engine, swapped in as a unit: every
/// shard holds the same committed batches, and the router state
/// (policy, dead letters, metrics) matches them.
#[derive(Debug)]
struct Generation {
    /// Publish sequence: bumped each time the shard cuts are replaced
    /// (commit, flush, merge). Reported as every shard's `publish_epoch`.
    seq: u64,
    shards: Vec<Arc<ShardCut>>,
    router: Router,
}

impl Generation {
    fn engines(&self) -> impl Iterator<Item = &SketchEngine> {
        self.shards.iter().map(|cut| &cut.engine)
    }
}

/// Poisons the engine when dropped during a panic. A dying thread drops
/// it before the channels it owns, so nobody can observe one of those
/// channels disconnect while the poisoned flag is still clear.
#[derive(Debug)]
struct PoisonOnUnwind<'a>(&'a Shared);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// A settings change applied to one shard in place.
type ShardFn = Arc<dyn Fn(&mut SketchEngine) + Send + Sync>;

/// A worker's reply, tagged with the replying shard.
type Reply<T> = channel::Sender<(usize, T)>;

/// Jobs the engine handle sends to the coordinator thread. One bounded
/// queue serializes all mutations, so job effects are applied (and
/// published) in submission order.
enum Job {
    Ingest {
        rows: Vec<Row>,
        /// The request's trace handle (disabled on untraced batches).
        ctx: TraceContext,
        /// Clock reading at submit, for the queue-wait stage; `None` when
        /// neither metrics nor tracing needed it. (An `Option` rather
        /// than a zero sentinel: a fresh [`sketches_obs::MonotonicClock`]
        /// anchors at its first read, so a legitimate reading can be 0.)
        submitted_at: Option<u64>,
        done: channel::Sender<Result<BatchSummary, BatchError>>,
    },
    FlushWindow {
        done: channel::Sender<SketchResult<WindowRows>>,
    },
    MergeFrom {
        // Boxed: the inline shard + router payload would dominate the Job
        // enum's size, bloating every queued ingest.
        state: Box<(Vec<SketchEngine>, Router)>,
        done: channel::Sender<SketchResult<()>>,
    },
    /// A settings change (policy, metrics switch, clock) applied to the
    /// router and mirrored into every shard.
    Configure {
        router: Box<dyn Fn(&mut Router) + Send>,
        shard: ShardFn,
        done: channel::Sender<()>,
    },
    ArmFaults {
        shard: usize,
        injector: FaultInjector,
        done: channel::Sender<SketchResult<()>>,
    },
    DisarmFaults {
        done: channel::Sender<Vec<(usize, FaultInjector)>>,
    },
    /// Drill hook: the coordinator panics in place (sudden death), which
    /// poisons the engine.
    Crash,
    Shutdown,
}

/// Commands the coordinator sends to one shard worker. Commands that
/// change shard state reply with the shard's fresh cut.
enum Cmd {
    Ingest {
        rows: Arc<Vec<Row>>,
        indices: channel::Receiver<usize>,
        outcome: Reply<WorkerOutcome>,
    },
    Commit {
        done: Reply<Arc<ShardCut>>,
    },
    Rollback {
        done: Reply<()>,
    },
    FlushWindow {
        done: Reply<(SketchResult<WindowRows>, Arc<ShardCut>)>,
    },
    /// Merge `others[shard]` into the shard (one entry per shard).
    Merge {
        others: Arc<Vec<SketchEngine>>,
        done: Reply<SketchResult<Arc<ShardCut>>>,
    },
    Configure {
        apply: ShardFn,
        done: Reply<()>,
    },
    DisarmFaults {
        done: Reply<Option<FaultInjector>>,
    },
    /// Drop the shard's cut from a retired generation.
    Retire(Arc<ShardCut>),
    Shutdown,
}

/// A pending batch: resolves to the same summary/error the synchronous
/// engines report, once the coordinator has committed or rolled back.
///
/// Dropping a ticket is allowed — the batch still commits (or rolls
/// back); only the notification is discarded.
#[derive(Debug)]
pub struct BatchTicket {
    rx: channel::Receiver<Result<BatchSummary, BatchError>>,
    resolved: Option<Result<BatchSummary, BatchError>>,
    shared: Arc<Shared>,
}

impl BatchTicket {
    /// Checks for the batch outcome without blocking. Returns `None`
    /// while the batch is still queued or in flight; once resolved, every
    /// call returns the same outcome.
    pub fn poll(&mut self) -> Option<&Result<BatchSummary, BatchError>> {
        if self.resolved.is_none() {
            match self.rx.try_recv() {
                Ok(result) => self.resolved = Some(result),
                Err(channel::TryRecvError::Empty) => {}
                Err(channel::TryRecvError::Disconnected) => {
                    self.resolved = Some(Err(poisoned_batch_error()));
                }
            }
        }
        self.resolved.as_ref()
    }

    /// Blocks until the batch resolves.
    ///
    /// A dead coordinator cannot hang this call: besides resolving on
    /// channel disconnect, the wait re-checks the engine's poisoned flag
    /// every `POISON_POLL` tick, so a job stranded in the submit queue
    /// of a dead engine still resolves to the typed poisoned error.
    ///
    /// # Errors
    /// The batch's [`BatchError`] (poison row, injected fault, contained
    /// panic — the engine rolled back), or a `WorkerPanic` error if the
    /// engine was poisoned before the batch could resolve. The poisoned
    /// error is *indeterminate*: the batch may or may not have committed
    /// before the thread died.
    pub fn wait(mut self) -> Result<BatchSummary, BatchError> {
        if let Some(result) = self.resolved.take() {
            return result;
        }
        loop {
            match self.rx.recv_timeout(POISON_POLL) {
                Ok(result) => return result,
                Err(channel::RecvTimeoutError::Disconnected) => {
                    return Err(poisoned_batch_error());
                }
                Err(channel::RecvTimeoutError::Timeout) => {
                    if self.shared.poisoned.load(Ordering::Acquire) {
                        // Grace drain: a resolution racing the poison flag
                        // (sent just before the thread died) still wins.
                        return match self.rx.try_recv() {
                            Ok(result) => result,
                            Err(_) => Err(poisoned_batch_error()),
                        };
                    }
                }
            }
        }
    }

    /// Blocks for at most `timeout` waiting for the batch to resolve.
    /// Returns the outcome on resolution (including the typed poisoned
    /// error on disconnect); gives the ticket back on timeout so the
    /// caller can keep polling or waiting.
    ///
    /// # Errors
    /// `Err(self)` when the timeout elapsed with the batch still queued
    /// or in flight.
    pub fn wait_timeout(
        mut self,
        timeout: Duration,
    ) -> Result<Result<BatchSummary, BatchError>, Self> {
        if let Some(result) = self.resolved.take() {
            return Ok(result);
        }
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Ok(result),
            Err(channel::RecvTimeoutError::Disconnected) => Ok(Err(poisoned_batch_error())),
            Err(channel::RecvTimeoutError::Timeout) => Err(self),
        }
    }
}

/// A GROUP BY engine that serves queries *while* ingesting: long-lived
/// shard workers, a submit/poll batch API, and one published generation
/// of immutable snapshots for wait-free-style reads (see the module
/// docs).
#[derive(Debug)]
pub struct ConcurrentEngine {
    submit_tx: channel::Sender<Job>,
    reader: ReadHandle,
    coordinator: Option<std::thread::JoinHandle<()>>,
}

impl ConcurrentEngine {
    /// Creates a concurrent engine with default sketch parameters and
    /// channel depth.
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

    /// Creates a concurrent engine with explicit sketch parameters and
    /// router→worker channel capacity (the same knobs as
    /// [`ShardedEngine::with_config`], so the two topologies are
    /// interchangeable).
    ///
    /// # Errors
    /// Returns an error if `num_shards == 0`, `channel_depth == 0`, or
    /// the spec/config produce invalid sketches.
    pub fn with_config(
        spec: QuerySpec,
        config: EngineConfig,
        num_shards: usize,
        channel_depth: usize,
    ) -> SketchResult<Self> {
        let shards = ShardedEngine::new_shards(&spec, config, num_shards, channel_depth)?;
        Ok(Self::from_parts(shards, Router::new(spec, channel_depth)))
    }

    /// Assembles the engine around pre-built shards (fresh construction
    /// and snapshot restore share this path): publishes generation 0,
    /// spawns the workers, then the coordinator.
    fn from_parts(shards: Vec<SketchEngine>, router: Router) -> Self {
        let shared = Arc::new(Shared {
            generation: RwLock::new(Arc::new(Generation {
                seq: 0,
                shards: shards.iter().map(ShardCut::of).collect(),
                router: router.clone(),
            })),
            rows_submitted: AtomicU64::new(0),
            rows_resolved: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
        });

        let mut workers = Vec::with_capacity(shards.len());
        let mut handles = Vec::with_capacity(shards.len());
        for (shard_id, shard) in shards.into_iter().enumerate() {
            let (cmd_tx, cmd_rx) = channel::bounded::<Cmd>(WORKER_CMD_DEPTH);
            workers.push(cmd_tx);
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                // The captured command channel drops after this guard.
                let _poison = PoisonOnUnwind(&shared);
                worker_main(shard, shard_id, &cmd_rx);
            }));
        }

        let (submit_tx, submit_rx) = channel::bounded::<Job>(SUBMIT_QUEUE_DEPTH);
        let mut coordinator = Coordinator {
            router,
            pool: Pool {
                workers,
                handles,
                shared: Arc::clone(&shared),
            },
            cuts: None,
        };
        let coordinator = std::thread::spawn(move || coordinator.run(&submit_rx));
        Self {
            submit_tx,
            reader: ReadHandle { shared },
            coordinator: Some(coordinator),
        }
    }

    /// Enqueues a batch for ingest and returns a ticket, **without**
    /// taking `&mut self`: ingest and queries interleave freely. Blocks
    /// only if the submit queue (capacity `SUBMIT_QUEUE_DEPTH` batches)
    /// is full — backpressure that also bounds read lag.
    ///
    /// Batches are applied in submission order with the transactional
    /// semantics of [`ShardedEngine::process_batch`]: all-or-nothing,
    /// quarantine per [`FaultPolicy`], typed errors on failure.
    pub fn submit_batch(&self, rows: Vec<Row>) -> BatchTicket {
        self.submit_batch_traced(rows, TraceContext::disabled())
    }

    /// [`submit_batch`](Self::submit_batch) carrying a request's
    /// [`TraceContext`]: the coordinator closes a `queue_wait` child span
    /// (submit to dequeue) plus `engine_apply` and `publish` spans under
    /// the request's root, and records the same durations into the
    /// `stage_latency{stage=...}` histograms.
    pub fn submit_batch_traced(&self, rows: Vec<Row>, ctx: TraceContext) -> BatchTicket {
        let shared = &self.reader.shared;
        let n = rows.len() as u64;
        // One clock read on the submit path, and only when someone will
        // consume it: the queue-wait stage needs the submit timestamp.
        let submitted_at = {
            let generation = shared.generation.read();
            let metrics = &generation.router.metrics;
            (metrics.enabled || ctx.is_sampled()).then(|| metrics.clock.now_nanos())
        };
        let (done_tx, done_rx) = channel::bounded(1);
        shared.rows_submitted.fetch_add(n, Ordering::Relaxed);
        shared.queue_depth.fetch_add(1, Ordering::Relaxed);
        if let Err(channel::SendError(job)) = self.submit_tx.send(Job::Ingest {
            rows,
            ctx,
            submitted_at,
            done: done_tx,
        }) {
            // Coordinator is gone: resolve the ticket immediately with the
            // poisoned error and undo the submission accounting.
            shared.rows_resolved.fetch_add(n, Ordering::Relaxed);
            shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
            if let Job::Ingest { done, .. } = job {
                let _ = done.send(Err(poisoned_batch_error()));
            }
        }
        BatchTicket {
            rx: done_rx,
            resolved: None,
            shared: Arc::clone(shared),
        }
    }

    /// Sends one job to the coordinator and blocks for its reply; `None`
    /// when the coordinator is gone (the engine is poisoned).
    fn call<T>(&self, job: impl FnOnce(channel::Sender<T>) -> Job) -> Option<T> {
        let (done_tx, done_rx) = channel::bounded(1);
        self.submit_tx.send(job(done_tx)).ok()?;
        done_rx.recv().ok()
    }

    /// Applies a settings change to the router and every worker, blocking
    /// until all have applied it (so the next submitted batch sees it).
    /// No-op on a poisoned engine.
    fn configure(
        &mut self,
        router: impl Fn(&mut Router) + Send + 'static,
        shard: impl Fn(&mut SketchEngine) + Send + Sync + 'static,
    ) {
        let _ = self.call(|done| Job::Configure {
            router: Box::new(router),
            shard: Arc::new(shard),
            done,
        });
    }

    /// Whether a worker or coordinator thread has died. A poisoned engine
    /// keeps serving reads from the last published generation; every
    /// mutation resolves to a typed error.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.reader.is_poisoned()
    }

    /// A detached read handle over the published generation: the same
    /// read API as the engine (`report`, `groups`, metrics, snapshot
    /// bytes), but cloneable, shareable across threads, and valid even
    /// after the engine is poisoned *or dropped* — it keeps serving the
    /// last published generation. This is the serving layer's read path.
    #[must_use]
    pub fn reader(&self) -> ReadHandle {
        self.reader.clone()
    }

    /// Drill hook: kills the coordinator thread with an injected panic
    /// (sudden death, no worker shutdown), exactly what a crashed
    /// coordinator looks like in production. The engine is poisoned;
    /// reads keep serving the last published generation and every
    /// outstanding or future mutation resolves to a typed error. Pair
    /// with [`silence_injected_panics`](crate::silence_injected_panics)
    /// to keep drill output clean.
    pub fn inject_coordinator_panic(&self) {
        let _ = self.submit_tx.send(Job::Crash);
    }

    /// The slim query-side view of the latest published generation; see
    /// [`ReadHandle::query_view`]. This is what a serving tier should
    /// ship.
    #[must_use]
    pub fn query_view(&self) -> EngineView {
        self.reader.query_view()
    }

    /// Reports one group from the latest published generation; see
    /// [`ReadHandle::report`].
    ///
    /// # Errors
    /// Returns an error only for internal sketch query failures.
    pub fn report(&self, key: &[Value]) -> SketchResult<Option<Vec<AggregateResult>>> {
        self.reader.report(key)
    }

    /// All group keys in the latest published generation; see
    /// [`ReadHandle::groups`].
    #[must_use]
    pub fn groups(&self) -> Vec<Vec<Value>> {
        self.reader.groups()
    }

    /// Groups tracked in the latest published generation.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.reader.num_groups()
    }

    /// Rows committed into the latest published generation.
    #[must_use]
    pub fn rows_processed(&self) -> u64 {
        self.reader.rows_processed()
    }

    /// Sketch memory across the latest published generation, in bytes.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        self.reader.state_bytes()
    }

    /// Number of shards (fixed for the engine's lifetime).
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.reader.num_shards()
    }

    /// The poison-row policy of the latest published generation.
    #[must_use]
    pub fn fault_policy(&self) -> FaultPolicy {
        self.reader.fault_policy()
    }

    /// Aggregated dead letters of the latest published generation; see
    /// [`ReadHandle::dead_letters`].
    #[must_use]
    pub fn dead_letters(&self) -> DeadLetters {
        self.reader.dead_letters()
    }

    /// Telemetry of the latest published generation; see
    /// [`ReadHandle::metrics`].
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.reader.metrics()
    }

    /// Serializes the latest published generation; see
    /// [`ReadHandle::to_snapshot_bytes`].
    #[must_use]
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        self.reader.to_snapshot_bytes()
    }

    /// Sets the poison-row policy, blocking until the coordinator has
    /// mirrored it into every worker (so the next submitted batch sees
    /// it). No-op on a poisoned engine.
    pub fn set_fault_policy(&mut self, policy: FaultPolicy) {
        self.configure(
            move |router| router.set_policy(policy),
            move |shard| shard.set_fault_policy(policy),
        );
    }

    /// Arms a deterministic fault injector on one shard worker (recovery
    /// drills; attempts count from the next batch the worker ingests).
    ///
    /// # Errors
    /// Returns an error if `shard` is out of range or the engine is
    /// poisoned.
    pub fn arm_faults(&mut self, shard: usize, injector: FaultInjector) -> SketchResult<()> {
        self.call(|done| Job::ArmFaults {
            shard,
            injector,
            done,
        })
        .unwrap_or_else(|| Err(poisoned_sketch_error()))
    }

    /// Disarms the fault injectors on every shard worker, returning each
    /// armed injector with its shard index (empty on a poisoned engine).
    pub fn disarm_faults(&mut self) -> Vec<(usize, FaultInjector)> {
        self.call(|done| Job::DisarmFaults { done })
            .unwrap_or_default()
    }

    /// Enables or disables metric recording on the router and every
    /// worker (on by default). No-op on a poisoned engine.
    pub fn set_metrics_enabled(&mut self, enabled: bool) {
        self.configure(
            move |router| router.metrics.enabled = enabled,
            move |shard| shard.set_metrics_enabled(enabled),
        );
    }

    /// Installs the time source behind the batch-latency histograms on
    /// the router and every worker. No-op on a poisoned engine.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        let shard_clock = Arc::clone(&clock);
        self.configure(
            move |router| router.metrics.clock = Arc::clone(&clock),
            move |shard| shard.set_clock(Arc::clone(&shard_clock)),
        );
    }

    /// Finishes a tumbling window against the *worker* state (every
    /// submitted batch ahead of this call is applied first — jobs are
    /// FIFO): every group's report in ascending key order, then a full
    /// reset, published as a new generation.
    ///
    /// # Errors
    /// Propagates report errors, or a typed error on a poisoned engine.
    pub fn flush_window(&mut self) -> SketchResult<Vec<(Vec<Value>, Vec<AggregateResult>)>> {
        self.call(|done| Job::FlushWindow { done })
            .unwrap_or_else(|| Err(poisoned_sketch_error()))
    }

    /// Merges another concurrent engine's **latest published generation**
    /// into this one (distributed GROUP BY). Quiesce `other` first
    /// (resolve its tickets) to merge its complete state; shard counts
    /// must match, as for [`ShardedEngine::merge`].
    ///
    /// # Errors
    /// Returns an error if shard counts or specs/configs differ, or if
    /// either engine is poisoned.
    pub fn merge(&mut self, other: &Self) -> SketchResult<()> {
        let theirs = other.reader.generation();
        if self.num_shards() != theirs.shards.len() {
            return Err(SketchError::incompatible("shard counts differ"));
        }
        let state = Box::new((theirs.engines().cloned().collect(), theirs.router.clone()));
        self.call(|done| Job::MergeFrom { state, done })
            .unwrap_or_else(|| Err(poisoned_sketch_error()))
    }

    /// Restores a concurrent engine from a sharded-kind snapshot
    /// (produced by [`to_snapshot_bytes`](Self::to_snapshot_bytes) *or*
    /// by a [`ShardedEngine`] — the formats are identical).
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on any damage or if the bytes
    /// hold a sequential-engine snapshot.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> SketchResult<Self> {
        let restored = ShardedEngine::from_snapshot_bytes(bytes)?;
        Ok(Self::from_parts(restored.shards, restored.router))
    }
}

/// A cloneable, thread-safe read-only view of a [`ConcurrentEngine`]'s
/// published generation — the engine's one read implementation and the
/// serving layer's read path.
///
/// The handle holds only the shared publish slot, so it stays valid
/// through engine poisoning *and past engine drop*: a server can keep
/// answering queries from the last published generation while the write
/// path is being recovered or torn down (graceful degradation to
/// read-only). Every method reads one generation — a committed-batch
/// boundary on every shard at once — and is never blocked by ingest: it
/// clones an `Arc` under a lock held only for the pointer copy.
#[derive(Debug, Clone)]
pub struct ReadHandle {
    shared: Arc<Shared>,
}

impl ReadHandle {
    fn generation(&self) -> Arc<Generation> {
        Arc::clone(&self.shared.generation.read())
    }

    /// Whether the engine behind this handle has been poisoned (a worker
    /// or coordinator thread died) — or dropped outright, which poisons
    /// nothing but stops all publishing.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.shared.poisoned.load(Ordering::Acquire)
    }

    /// Reports the aggregates of one group from the latest published
    /// generation (`None` if never seen there). The group lives in
    /// exactly one shard, found by re-hashing the key.
    ///
    /// # Errors
    /// Returns an error only for internal sketch query failures.
    pub fn report(&self, key: &[Value]) -> SketchResult<Option<Vec<AggregateResult>>> {
        let generation = self.generation();
        let shard = shard_of(key.iter(), generation.shards.len());
        generation.shards[shard].engine.report(key)
    }

    /// The slim query-side view of the latest published generation: the
    /// shard views unioned (exact — every group lives in one shard). A
    /// fraction of the size of [`to_snapshot_bytes`](Self::to_snapshot_bytes).
    #[must_use]
    pub fn query_view(&self) -> EngineView {
        let generation = self.generation();
        let mut out = generation.shards[0].view.clone();
        for cut in &generation.shards[1..] {
            out.merge(&cut.view)
                // lint: panic-ok(every shard view is cut from a shard built with one shared spec, so the merge cannot fail)
                .expect("shard views share one spec");
        }
        out
    }

    /// All group keys in the latest published generation, in ascending
    /// key order across all shards (the unified listing contract).
    #[must_use]
    pub fn groups(&self) -> Vec<Vec<Value>> {
        // lint: sorted-iteration-ok(per-shard listings collected then fully sorted by the key total order below)
        let mut keys: Vec<Vec<Value>> = self
            .generation()
            .engines()
            .flat_map(|shard| shard.groups().cloned())
            .collect();
        keys.sort();
        keys
    }

    /// Groups tracked in the latest published generation.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.generation()
            .engines()
            .map(SketchEngine::num_groups)
            .sum()
    }

    /// Rows committed into the latest published generation.
    #[must_use]
    pub fn rows_processed(&self) -> u64 {
        self.generation()
            .engines()
            .map(SketchEngine::rows_processed)
            .sum()
    }

    /// Sketch memory across the latest published generation, in bytes.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        self.generation()
            .engines()
            .map(SketchEngine::state_bytes)
            .sum()
    }

    /// Number of shards behind this handle.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.generation().shards.len()
    }

    /// The envelope kind [`to_snapshot_bytes`](Self::to_snapshot_bytes)
    /// produces — always [`crate::SnapshotKind::Sharded`]; the typed
    /// accessor callers (e.g. `/readyz`) use instead of peeking at
    /// header bytes.
    #[must_use]
    pub fn snapshot_kind(&self) -> crate::SnapshotKind {
        crate::SnapshotKind::Sharded
    }

    /// The poison-row policy of the latest published generation.
    #[must_use]
    pub fn fault_policy(&self) -> FaultPolicy {
        self.generation().router.policy
    }

    /// Aggregated dead letters of the latest published generation: router
    /// quarantine plus every shard's, samples stamped with their shard.
    #[must_use]
    pub fn dead_letters(&self) -> DeadLetters {
        let generation = self.generation();
        generation.router.dead_letters(generation.engines())
    }

    /// Telemetry snapshot of the latest published generation: the router
    /// block plus every shard's, with the concurrent-serving gauges —
    /// `publish_epoch{shard}` (the generation sequence, on every shard),
    /// `publish_lag_rows`, `submit_queue_depth` — and the
    /// `snapshots_published_total` counter (one per shard per publish).
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let generation = self.generation();
        let mut snap = generation.router.metrics(generation.engines());
        for i in 0..generation.shards.len() {
            snap.add_gauge(&names::publish_epoch(i), generation.seq);
        }
        let shared = &self.shared;
        snap.add_gauge(
            names::SUBMIT_QUEUE_DEPTH,
            shared.queue_depth.load(Ordering::Relaxed),
        );
        let submitted = shared.rows_submitted.load(Ordering::Relaxed);
        let resolved = shared.rows_resolved.load(Ordering::Relaxed);
        snap.add_gauge(names::PUBLISH_LAG_ROWS, submitted.saturating_sub(resolved));
        snap.add_counter(
            names::SNAPSHOTS_PUBLISHED,
            generation.seq * generation.shards.len() as u64,
        );
        snap
    }

    /// Serializes the latest published generation as a checksummed
    /// snapshot — **byte-identical to [`ShardedEngine::to_snapshot_bytes`]**
    /// on the same shards, so state moves freely between the two
    /// topologies.
    #[must_use]
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let generation = self.generation();
        ShardedEngine::from_restored_shards(
            generation.engines().cloned().collect(),
            generation.router.spec.clone(),
            generation.shards[0].engine.config,
            generation.router.channel_depth,
        )
        .to_snapshot_bytes()
    }
}

impl Drop for ConcurrentEngine {
    fn drop(&mut self) {
        // FIFO shutdown: every batch submitted before the drop still
        // resolves (its ticket may already be gone, but the state effects
        // land) before workers are joined.
        // lint: drop-ok(shutdown send on the engine's own channel; the coordinator drains it and is joined right below, and a send error means it already exited)
        let _ = self.submit_tx.send(Job::Shutdown);
        if let Some(handle) = self.coordinator.take() {
            let _ = handle.join();
        }
    }
}

/// One long-lived shard worker: owns its [`SketchEngine`] for the
/// engine's lifetime and applies commands in order, replying to each
/// state change with a fresh cut of the shard. A closed command channel
/// means the coordinator is gone: the worker exits quietly.
fn worker_main(mut shard: SketchEngine, id: usize, cmds: &channel::Receiver<Cmd>) {
    while let Ok(cmd) = cmds.recv() {
        match cmd {
            Cmd::Ingest {
                rows,
                indices,
                outcome,
            } => {
                let out = worker_ingest(&mut shard, &rows, &indices);
                // Close the index channel *before* reporting: on failure
                // the router's next send errors out and it stops feeding
                // (the scoped version got this by dropping the receiver
                // on return; long-lived workers must do it explicitly).
                drop(indices);
                let _ = outcome.send((id, out));
            }
            Cmd::Commit { done } => {
                shard.commit_batch();
                let _ = done.send((id, ShardCut::of(&shard)));
            }
            Cmd::Rollback { done } => {
                // Rolled-back state equals the already-published state,
                // so no cut: readers never see any of the torn batch.
                shard.rollback_batch();
                let _ = done.send((id, ()));
            }
            Cmd::FlushWindow { done } => {
                let window = shard.flush_window();
                let _ = done.send((id, (window, ShardCut::of(&shard))));
            }
            Cmd::Merge { others, done } => {
                let merged = shard.merge(&others[id]).map(|()| ShardCut::of(&shard));
                let _ = done.send((id, merged));
            }
            Cmd::Configure { apply, done } => {
                apply(&mut shard);
                let _ = done.send((id, ()));
            }
            Cmd::DisarmFaults { done } => {
                let _ = done.send((id, shard.disarm_faults()));
            }
            Cmd::Retire(cut) => drop(cut),
            Cmd::Shutdown => return,
        }
    }
}

/// The shard worker threads and their command channels.
struct Pool {
    workers: Vec<channel::Sender<Cmd>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl Pool {
    /// Sends one command to every worker and collects every reply in
    /// shard order. `None` — with the engine poisoned — if a worker died.
    fn broadcast<T>(&self, make: impl Fn(Reply<T>) -> Cmd) -> Option<Vec<T>> {
        let num = self.workers.len();
        let (reply_tx, reply_rx) = channel::bounded(num);
        for worker in &self.workers {
            let _ = worker.send(make(reply_tx.clone()));
        }
        drop(reply_tx);
        let mut replies: Vec<Option<T>> = (0..num).map(|_| None).collect();
        for (shard, reply) in &reply_rx {
            replies[shard] = Some(reply);
        }
        let replies: Option<Vec<T>> = replies.into_iter().collect();
        if replies.is_none() {
            self.shared.poison();
        }
        replies
    }

    fn shutdown(&mut self) {
        for worker in &self.workers {
            let _ = worker.send(Cmd::Shutdown);
        }
        self.workers.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The coordinator: drains the submit queue, running every job across
/// the worker pool — batches through the shared [`Router`] protocol —
/// and publishing one generation per job before answering it.
struct Coordinator {
    router: Router,
    pool: Pool,
    /// Shard cuts gathered by the job in hand; [`Self::publish`] swaps
    /// them in.
    cuts: Option<Vec<Arc<ShardCut>>>,
}

impl Coordinator {
    fn run(&mut self, jobs: &channel::Receiver<Job>) {
        let shared = Arc::clone(&self.pool.shared);
        while let Ok(mut job) = jobs.recv() {
            // Declared after the job, so should handling it panic, the
            // engine is poisoned before the job's reply channel — and the
            // submit queue behind it — disconnect.
            let _poison = PoisonOnUnwind(&shared);
            match &mut job {
                Job::Ingest {
                    rows,
                    ctx,
                    submitted_at,
                    done,
                } => {
                    let n = rows.len() as u64;
                    if let Some(submitted_at) = *submitted_at {
                        let dequeued = self.router.metrics.clock.now_nanos();
                        if self.router.metrics.enabled {
                            self.router
                                .metrics
                                .stage_queue_wait
                                .record_nanos(dequeued.saturating_sub(submitted_at));
                        }
                        ctx.child(Stage::QueueWait, submitted_at, dequeued);
                    }
                    let result = self.handle_ingest(std::mem::take(rows), ctx);
                    self.publish();
                    shared.rows_resolved.fetch_add(n, Ordering::Relaxed);
                    shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    // Resolve *after* publishing: a resolved ticket
                    // guarantees reads observe the batch.
                    let _ = done.send(result);
                }
                Job::FlushWindow { done } => {
                    let result = self.handle_flush_window();
                    self.publish();
                    let _ = done.send(result);
                }
                Job::MergeFrom { state, done } => {
                    let (shards, other) = &mut **state;
                    let result = self.handle_merge(std::mem::take(shards), other);
                    self.publish();
                    let _ = done.send(result);
                }
                Job::Configure {
                    router,
                    shard,
                    done,
                } => {
                    router(&mut self.router);
                    self.pool.broadcast(|done| Cmd::Configure {
                        apply: Arc::clone(shard),
                        done,
                    });
                    // Published so the submit path (which reads the
                    // published router's clock and metrics switch) sees
                    // the change immediately.
                    self.publish();
                    let _ = done.send(());
                }
                Job::ArmFaults {
                    shard,
                    injector,
                    done,
                } => {
                    let _ = done.send(self.handle_arm_faults(*shard, std::mem::take(injector)));
                }
                Job::DisarmFaults { done } => {
                    let armed = self
                        .pool
                        .broadcast(|done| Cmd::DisarmFaults { done })
                        .unwrap_or_default();
                    let armed = armed.into_iter().enumerate();
                    let _ = done.send(armed.filter_map(|(i, inj)| Some((i, inj?))).collect());
                }
                Job::Crash => {
                    // lint: panic-ok(drill hook: deterministic injected coordinator death; the unwind guard poisons the engine)
                    panic!("{INJECTED_PANIC_MARKER}: injected coordinator crash (drill)");
                }
                Job::Shutdown => break,
            }
        }
        // Shut down, or the handle dropped without a Shutdown (it always
        // sends one, but be safe).
        self.pool.shutdown();
    }

    /// Swaps in the next generation — once per job, before the job is
    /// answered. Fresh shard cuts (commit, flush, merge) bump the
    /// sequence; otherwise the shard cuts carry over and only the router
    /// state is republished.
    fn publish(&mut self) {
        let shared = &self.pool.shared;
        let prev = Arc::clone(&shared.generation.read());
        let (seq, shards) = match self.cuts.take() {
            Some(cuts) => (prev.seq + 1, cuts),
            None => (prev.seq, prev.shards.clone()),
        };
        let next = Arc::new(Generation {
            seq,
            shards,
            router: self.router.clone(),
        });
        *shared.generation.write() = next;
        // Deep-dropping the retired cuts is as costly as cutting them:
        // hand each back to its worker so they drop in parallel, off the
        // coordinator. A reader still holding the generation drops it.
        if let Ok(retired) = Arc::try_unwrap(prev) {
            for (worker, cut) in self.pool.workers.iter().zip(retired.shards) {
                let _ = worker.send(Cmd::Retire(cut));
            }
        }
    }

    fn handle_ingest(
        &mut self,
        rows: Vec<Row>,
        ctx: &TraceContext,
    ) -> Result<BatchSummary, BatchError> {
        self.router.prevalidate(&rows)?;
        let start = self.router.metrics.start_batch();
        // Stage clocking is needed when either consumer is live: the
        // aggregate stage histograms (metrics enabled) or this request's
        // trace (sampled).
        let timed = self.router.metrics.enabled || ctx.is_sampled();
        let clock = Arc::clone(&self.router.metrics.clock);
        let now = || if timed { clock.now_nanos() } else { 0 };
        let apply_start = now();
        let num = self.pool.workers.len();
        let rows = Arc::new(rows);
        let (outcome_tx, outcome_rx) = channel::bounded(num);
        let mut senders = Vec::with_capacity(num);
        for worker in &self.pool.workers {
            let (idx_tx, idx_rx) = channel::bounded::<usize>(self.router.channel_depth);
            let cmd = Cmd::Ingest {
                rows: Arc::clone(&rows),
                indices: idx_rx,
                outcome: outcome_tx.clone(),
            };
            if worker.send(cmd).is_err() {
                // A worker thread is gone before the batch even started:
                // fail fast and poison.
                self.pool.shared.poison();
                self.router.metrics.finish_batch(start);
                return Err(poisoned_batch_error());
            }
            senders.push(idx_tx);
        }
        drop(outcome_tx);
        let quarantine = self.router.route(&rows, &senders);
        drop(senders);
        let mut outcomes: Vec<Option<WorkerOutcome>> = (0..num).map(|_| None).collect();
        for (shard, outcome) in &outcome_rx {
            outcomes[shard] = Some(outcome);
        }
        if timed {
            let apply_end = clock.now_nanos();
            if self.router.metrics.enabled {
                self.router
                    .metrics
                    .stage_engine_apply
                    .record_nanos(apply_end.saturating_sub(apply_start));
            }
            ctx.child_with(
                Stage::EngineApply,
                apply_start,
                apply_end,
                vec![
                    ("rows".to_string(), rows.len().to_string()),
                    ("shards".to_string(), num.to_string()),
                ],
            );
        }

        let worker_died = outcomes.iter().any(Option::is_none);
        let pool = &self.pool;
        let cuts = &mut self.cuts;
        let mut publish_span = None;
        let result = self.router.settle(outcomes, quarantine, |commit| {
            if commit {
                let publish_start = now();
                let committed = pool.broadcast(|done| Cmd::Commit { done });
                *cuts = Some(committed.ok_or_else(poisoned_batch_error)?);
                publish_span = Some((publish_start, now()));
            } else {
                if worker_died {
                    pool.shared.poison();
                }
                pool.broadcast(|done| Cmd::Rollback { done })
                    .ok_or_else(poisoned_batch_error)?;
            }
            Ok(())
        });
        if let (true, Some((publish_start, publish_end))) = (timed, publish_span) {
            if self.router.metrics.enabled {
                self.router
                    .metrics
                    .stage_publish
                    .record_nanos(publish_end.saturating_sub(publish_start));
            }
            ctx.child(Stage::Publish, publish_start, publish_end);
        }
        self.router.metrics.finish_batch(start);
        result
    }

    fn handle_flush_window(&mut self) -> SketchResult<WindowRows> {
        let replies = self
            .pool
            .broadcast(|done| Cmd::FlushWindow { done })
            .ok_or_else(poisoned_sketch_error)?;
        let (windows, cuts): (Vec<_>, Vec<_>) = replies.into_iter().unzip();
        self.cuts = Some(cuts);
        self.router.flush_window(windows)
    }

    fn handle_merge(&mut self, shards: Vec<SketchEngine>, other: &Router) -> SketchResult<()> {
        let others = Arc::new(shards);
        let replies = self
            .pool
            .broadcast(|done| Cmd::Merge {
                others: Arc::clone(&others),
                done,
            })
            .ok_or_else(poisoned_sketch_error)?;
        let cuts = replies
            .into_iter()
            .enumerate()
            .map(|(i, merged)| {
                merged.map_err(|e| SketchError::incompatible(format!("shard {i}: {e}")))
            })
            .collect::<SketchResult<Vec<_>>>()?;
        self.cuts = Some(cuts);
        self.router.absorb(other);
        Ok(())
    }

    fn handle_arm_faults(&self, shard: usize, injector: FaultInjector) -> SketchResult<()> {
        let num = self.pool.workers.len();
        let Some(worker) = self.pool.workers.get(shard) else {
            return Err(SketchError::invalid(
                "shard",
                format!("no shard {shard} (of {num})"),
            ));
        };
        let (ack_tx, ack_rx) = channel::bounded(1);
        let apply: ShardFn = Arc::new(move |s| s.arm_faults(injector.clone()));
        if worker
            .send(Cmd::Configure {
                apply,
                done: ack_tx,
            })
            .is_err()
            || ack_rx.recv().is_err()
        {
            self.pool.shared.poison();
            return Err(poisoned_sketch_error());
        }
        Ok(())
    }
}

#[cfg(test)]
// `row!` expands to `vec![...]`, which tests also pass to slice-taking
// query methods — fine here.
#[allow(clippy::useless_vec)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
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
    fn rejects_zero_shards_and_zero_depth() {
        assert!(ConcurrentEngine::new(spec(), 0).is_err());
        assert!(ConcurrentEngine::with_config(spec(), EngineConfig::default(), 2, 0).is_err());
    }

    #[test]
    fn quiescent_reports_match_sequential_at_every_shard_count() {
        let data = rows(20_000, 23);
        let mut seq = SketchEngine::new(spec()).unwrap();
        seq.process_batch(&data).unwrap();
        for shards in [1usize, 2, 4] {
            let conc = ConcurrentEngine::new(spec(), shards).unwrap();
            conc.submit_batch(data.clone()).wait().unwrap();
            assert_eq!(conc.rows_processed(), seq.rows_processed());
            assert_eq!(conc.num_groups(), seq.num_groups());
            for g in 0..23u64 {
                assert_eq!(
                    conc.report(&row![g]).unwrap(),
                    seq.report(&row![g]).unwrap(),
                    "group {g} diverged at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn quiescent_snapshot_is_byte_identical_to_sharded() {
        let data = rows(8_000, 13);
        let mut sharded = ShardedEngine::new(spec(), 4).unwrap();
        sharded.process_batch(&data).unwrap();
        let conc = ConcurrentEngine::new(spec(), 4).unwrap();
        conc.submit_batch(data).wait().unwrap();
        assert_eq!(conc.to_snapshot_bytes(), sharded.to_snapshot_bytes());
    }

    #[test]
    fn submitted_batches_apply_in_order_and_poll_resolves() {
        let conc = ConcurrentEngine::new(spec(), 3).unwrap();
        let mut tickets: Vec<BatchTicket> = rows(9_000, 11)
            .chunks(500)
            .map(|chunk| conc.submit_batch(chunk.to_vec()))
            .collect();
        let mut pending = tickets.len();
        while pending > 0 {
            pending = 0;
            for t in &mut tickets {
                match t.poll() {
                    Some(result) => assert!(result.is_ok(), "{result:?}"),
                    None => pending += 1,
                }
            }
            std::thread::yield_now();
        }
        // Polling again after resolution returns the cached outcome.
        assert!(tickets[0].poll().unwrap().is_ok());

        let mut seq = SketchEngine::new(spec()).unwrap();
        seq.process_batch(&rows(9_000, 11)).unwrap();
        for g in 0..11u64 {
            assert_eq!(
                conc.report(&row![g]).unwrap(),
                seq.report(&row![g]).unwrap()
            );
        }
    }

    #[test]
    fn wait_implies_published() {
        // The commit ack is sent only after the shard published, so a
        // resolved ticket means reads observe the batch — every time.
        let conc = ConcurrentEngine::new(spec(), 4).unwrap();
        let mut expected = 0u64;
        for chunk in rows(5_000, 7).chunks(250) {
            let summary = conc.submit_batch(chunk.to_vec()).wait().unwrap();
            expected += summary.rows_ingested as u64;
            assert_eq!(conc.rows_processed(), expected);
        }
    }

    #[test]
    fn poison_row_rolls_back_and_publishes_nothing() {
        let conc = ConcurrentEngine::new(spec(), 4).unwrap();
        conc.submit_batch(rows(500, 7)).wait().unwrap();
        let before = conc.to_snapshot_bytes();
        let epoch_before = conc.metrics().gauges[&names::publish_epoch(0)];

        let mut batch = rows(200, 7);
        batch.insert(60, row![0u64, 1u64, "not-a-number"]);
        let err = conc.submit_batch(batch).wait().unwrap_err();
        assert_eq!(err.row, Some(60));
        assert!(err.shard.is_some());
        assert!(matches!(err.cause, BatchCause::Row(_)));
        // Rolled back and *not* republished: readers never saw any of it.
        assert_eq!(conc.to_snapshot_bytes(), before);
        assert_eq!(conc.rows_processed(), 500);
        assert_eq!(
            conc.metrics().gauges[&names::publish_epoch(0)],
            epoch_before
        );
        assert!(!conc.is_poisoned());
    }

    #[test]
    fn quarantine_policy_diverts_rows() {
        let mut conc = ConcurrentEngine::new(spec(), 4).unwrap();
        conc.set_fault_policy(FaultPolicy::Quarantine { max_samples: 8 });
        assert!(matches!(
            conc.fault_policy(),
            FaultPolicy::Quarantine { max_samples: 8 }
        ));
        let mut batch = rows(100, 5);
        batch.insert(3, row![7u64]); // short: router quarantines it
        batch.insert(50, row![0u64, 1u64, "bad"]); // shard quarantines it
        let summary = conc.submit_batch(batch).wait().unwrap();
        assert_eq!(summary.rows_ingested, 100);
        assert_eq!(summary.rows_quarantined, 2);

        let all = conc.dead_letters();
        assert_eq!(all.count(), 2);
        let router_sample = all.samples().iter().find(|q| q.row_index == 3).unwrap();
        assert_eq!(router_sample.shard, None);
        let shard_sample = all.samples().iter().find(|q| q.row_index == 50).unwrap();
        assert!(shard_sample.shard.is_some());

        // Dead letters are window state.
        conc.flush_window().unwrap();
        assert!(conc.dead_letters().is_empty());
    }

    #[test]
    fn injected_worker_panic_is_contained_and_batch_retryable() {
        crate::fault::silence_injected_panics();
        let mut conc = ConcurrentEngine::new(spec(), 4).unwrap();
        conc.submit_batch(rows(300, 9)).wait().unwrap();
        let before = conc.to_snapshot_bytes();

        conc.arm_faults(2, FaultInjector::new().at(10, FaultKind::Panic))
            .unwrap();
        let batch = rows(400, 9);
        let err = conc.submit_batch(batch.clone()).wait().unwrap_err();
        assert_eq!(err.shard, Some(2));
        assert!(matches!(err.cause, BatchCause::WorkerPanic(_)));
        assert_eq!(conc.to_snapshot_bytes(), before);
        // The panic was contained inside the batch supervisor: the worker
        // thread is alive and the engine is not poisoned.
        assert!(!conc.is_poisoned());

        // Retry gets past the transient fault and converges with a
        // never-faulted sharded engine.
        conc.submit_batch(batch.clone()).wait().unwrap();
        let disarmed = conc.disarm_faults();
        assert_eq!(disarmed.len(), 1);
        assert_eq!(disarmed[0].0, 2);
        let mut baseline = ShardedEngine::new(spec(), 4).unwrap();
        baseline.process_batch(&rows(300, 9)).unwrap();
        baseline.process_batch(&batch).unwrap();
        assert_eq!(conc.to_snapshot_bytes(), baseline.to_snapshot_bytes());
    }

    #[test]
    fn snapshot_round_trips_across_topologies() {
        let data = rows(6_000, 11);
        let conc = ConcurrentEngine::new(spec(), 4).unwrap();
        conc.submit_batch(data.clone()).wait().unwrap();
        let bytes = conc.to_snapshot_bytes();

        // Concurrent → concurrent.
        let restored = ConcurrentEngine::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.num_shards(), 4);
        assert_eq!(restored.to_snapshot_bytes(), bytes);

        // Concurrent → sharded and back: the formats are identical.
        let as_sharded = ShardedEngine::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(as_sharded.to_snapshot_bytes(), bytes);
        let back = ConcurrentEngine::from_snapshot_bytes(&as_sharded.to_snapshot_bytes()).unwrap();
        for g in 0..11u64 {
            assert_eq!(
                back.report(&row![g]).unwrap(),
                conc.report(&row![g]).unwrap()
            );
        }

        // Sequential snapshots are a typed kind mismatch.
        let seq = SketchEngine::new(spec()).unwrap();
        assert!(matches!(
            ConcurrentEngine::from_snapshot_bytes(&seq.to_snapshot_bytes()),
            Err(SketchError::Corrupted { .. })
        ));
    }

    #[test]
    fn merge_combines_published_states() {
        let data = rows(12_000, 13);
        let (left, right) = data.split_at(7_000);
        let mut a = ConcurrentEngine::new(spec(), 4).unwrap();
        let b = ConcurrentEngine::new(spec(), 4).unwrap();
        a.submit_batch(left.to_vec()).wait().unwrap();
        b.submit_batch(right.to_vec()).wait().unwrap();
        a.merge(&b).unwrap();

        let mut sa = ShardedEngine::new(spec(), 4).unwrap();
        let mut sb = ShardedEngine::new(spec(), 4).unwrap();
        sa.process_batch(left).unwrap();
        sb.process_batch(right).unwrap();
        sa.merge(&sb).unwrap();
        assert_eq!(a.rows_processed(), sa.rows_processed());
        for g in 0..13u64 {
            assert_eq!(a.report(&row![g]).unwrap(), sa.report(&row![g]).unwrap());
        }

        let mismatched = ConcurrentEngine::new(spec(), 2).unwrap();
        assert!(a.merge(&mismatched).is_err());
    }

    #[test]
    fn metrics_export_concurrency_gauges() {
        let conc = ConcurrentEngine::new(spec(), 3).unwrap();
        conc.submit_batch(rows(1_000, 7)).wait().unwrap();
        let snap = conc.metrics();
        assert_eq!(snap.counters[names::ROWS_INGESTED], 1_000);
        assert_eq!(snap.counters[names::BATCHES_COMMITTED], 1);
        assert_eq!(snap.counters[names::SNAPSHOTS_PUBLISHED], 3);
        assert_eq!(snap.gauges[names::SHARDS], 3);
        // Quiescent: nothing queued, nothing unresolved, every shard
        // published exactly one epoch.
        assert_eq!(snap.gauges[names::SUBMIT_QUEUE_DEPTH], 0);
        assert_eq!(snap.gauges[names::PUBLISH_LAG_ROWS], 0);
        for i in 0..3 {
            assert_eq!(snap.gauges[&names::publish_epoch(i)], 1);
        }
    }

    #[test]
    fn reads_never_block_during_ingest() {
        // Readers spin on report()/groups() while batches are in flight;
        // every read must succeed against some published prefix.
        let conc = Arc::new(ConcurrentEngine::new(spec(), 4).unwrap());
        let reader = {
            let conc = Arc::clone(&conc);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                let mut last_rows = 0u64;
                while conc.rows_processed() < 20_000 {
                    for g in 0..7u64 {
                        assert!(conc.report(&row![g]).is_ok());
                    }
                    let now = conc.rows_processed();
                    // Published row counts are monotone: batches publish
                    // whole, in order.
                    assert!(now >= last_rows, "rows went backwards");
                    last_rows = now;
                    reads += 1;
                }
                reads
            })
        };
        for chunk in rows(20_000, 7).chunks(1_000) {
            conc.submit_batch(chunk.to_vec()).wait().unwrap();
        }
        let reads = reader.join().expect("reader thread");
        assert!(reads > 0);
    }

    #[test]
    fn killed_coordinator_resolves_waits_with_typed_error() {
        // The PR 8 regression: a coordinator dying mid-flight must not
        // hang wait() — every outstanding ticket resolves to the typed
        // poisoned error, in bounded time.
        crate::fault::silence_injected_panics();
        let conc = ConcurrentEngine::new(spec(), 3).unwrap();
        conc.submit_batch(rows(2_000, 7)).wait().unwrap();
        let before = conc.rows_processed();

        conc.inject_coordinator_panic();
        // Tickets submitted around and after the kill all resolve.
        let tickets: Vec<BatchTicket> = (0..8).map(|_| conc.submit_batch(rows(100, 7))).collect();
        let start = std::time::Instant::now();
        for t in tickets {
            let err = t.wait().expect_err("poisoned engine commits nothing");
            assert!(matches!(err.cause, BatchCause::WorkerPanic(_)), "{err:?}");
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "waits did not resolve in bounded time"
        );
        assert!(conc.is_poisoned());
        // Degraded, not wedged: reads keep serving the last epoch.
        assert_eq!(conc.rows_processed(), before);
        assert!(conc.report(&row![1u64]).is_ok());
    }

    #[test]
    fn wait_timeout_returns_ticket_then_outcome() {
        let conc = ConcurrentEngine::new(spec(), 2).unwrap();
        // Instant path: an already-resolved batch returns Ok immediately.
        let t = conc.submit_batch(rows(50, 3));
        std::thread::sleep(Duration::from_millis(50));
        match t.wait_timeout(Duration::from_secs(5)) {
            Ok(result) => assert!(result.is_ok(), "{result:?}"),
            Err(_) => panic!("resolved batch timed out"),
        }
        // Zero-duration timeout on a fresh submission usually hands the
        // ticket back; waiting on it then resolves normally.
        let t = conc.submit_batch(rows(5_000, 3));
        match t.wait_timeout(Duration::from_nanos(1)) {
            Ok(result) => assert!(result.is_ok(), "{result:?}"),
            Err(ticket) => assert!(ticket.wait().is_ok()),
        }
    }

    #[test]
    fn read_handle_survives_poisoning_and_drop() {
        crate::fault::silence_injected_panics();
        let conc = ConcurrentEngine::new(spec(), 4).unwrap();
        conc.submit_batch(rows(3_000, 9)).wait().unwrap();
        let reader = conc.reader();
        assert_eq!(reader.rows_processed(), 3_000);
        assert_eq!(reader.num_groups(), 9);
        assert_eq!(reader.num_shards(), 4);
        assert_eq!(reader.to_snapshot_bytes(), conc.to_snapshot_bytes());
        assert_eq!(
            reader.report(&row![1u64]).unwrap(),
            conc.report(&row![1u64]).unwrap()
        );

        // Poisoned: the reader still serves the last published epoch.
        conc.inject_coordinator_panic();
        let _ = conc.submit_batch(rows(10, 3)).wait();
        assert!(reader.is_poisoned());
        assert_eq!(reader.rows_processed(), 3_000);

        // Dropped: still serving. The snapshot is byte-identical to the
        // pre-drop state, so drain-and-restart flows can verify exactness.
        let bytes_before = reader.to_snapshot_bytes();
        drop(conc);
        assert_eq!(reader.rows_processed(), 3_000);
        assert_eq!(reader.groups().len(), 9);
        assert_eq!(reader.to_snapshot_bytes(), bytes_before);
        assert!(reader.metrics().gauges[names::SHARDS] == 4);
    }

    #[test]
    fn published_views_track_epochs_and_survive_drop() {
        let data = rows(6_000, 11);
        let mut seq = SketchEngine::new(spec()).unwrap();
        seq.process_batch(&data).unwrap();

        let conc = ConcurrentEngine::new(spec(), 4).unwrap();
        let reader = conc.reader();
        // Epoch 0: empty views.
        assert_eq!(conc.query_view().rows_processed(), 0);
        conc.submit_batch(data).wait().unwrap();

        // A resolved ticket implies the slim view observes the batch too
        // (views publish in the same swap sequence as fat snapshots).
        let view = conc.query_view();
        assert_eq!(view.rows_processed(), 6_000);
        assert_eq!(view.num_groups(), 11);
        for g in 0..11u64 {
            assert_eq!(
                view.report(&row![g]).unwrap(),
                seq.report(&row![g]).unwrap(),
                "group {g} view diverged from the fat report"
            );
        }
        // The slim side is what the wire should carry: far smaller than
        // the fat snapshot of the same published epoch.
        let slim = view.to_view_bytes().len();
        let fat = conc.to_snapshot_bytes().len();
        assert!(
            slim * 2 < fat,
            "view bytes {slim} not slim against snapshot bytes {fat}"
        );

        // The read handle serves the same views, even after engine drop.
        drop(conc);
        let after = reader.query_view();
        assert_eq!(after.rows_processed(), 6_000);
        assert_eq!(
            after.report(&row![3u64]).unwrap(),
            view.report(&row![3u64]).unwrap()
        );
    }

    #[test]
    fn drop_with_unresolved_tickets_does_not_hang() {
        let conc = ConcurrentEngine::new(spec(), 3).unwrap();
        let mut tickets: Vec<BatchTicket> = rows(4_000, 5)
            .chunks(200)
            .map(|chunk| conc.submit_batch(chunk.to_vec()))
            .collect();
        drop(conc);
        // Every submitted batch still resolved (FIFO before shutdown).
        for t in &mut tickets {
            assert!(t.poll().expect("resolved by shutdown").is_ok());
        }
    }
}
