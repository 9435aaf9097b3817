//! The compilation service proper: admission control, cache lookup,
//! worker-pool dispatch, deadlines, panic containment, graceful drain,
//! and statistics.
//!
//! Compilation is a pure function of the request content, so the
//! service needs no retry: a failure is as deterministic as an
//! artifact, and it is cached like one. Every request follows one fixed
//! path (see `docs/ARCHITECTURE.md`, "Fault tolerance in the serving
//! layer"):
//!
//! ```text
//! submit ── admission ──► queued ──► deadline ──► cache ──► compile ──► done
//!              │ E0801/E0805          │ E0802       │ hit     │ error/panic
//!              ▼                      ▼             ▼         ▼
//!            shed                 rejected       replay   cached, then failed
//! ```
//!
//! * **Admission** bounds outstanding work by count
//!   ([`ServiceConfig::queue_cap`]) and sheds the excess with
//!   [`ServiceError::Overloaded`] instead of queueing unboundedly.
//! * **Deadlines**: a request's `deadline_ms` starts at admission; the
//!   per-request [`CancelToken`] is checked before compiling and at
//!   every pass boundary of the compiler.
//! * **Failure caching**: a compile error or a contained panic is stored
//!   in the artifact cache under the request's per-kind keys and
//!   replayed to later requests for the same content, so a failing input
//!   compiles at most once while it stays cached. Cancellations (`E0802`,
//!   `E0805`) depend on timing, not on the input, and are never cached.
//! * **Drain** ([`CompileService::drain`]) closes admission, waits for
//!   in-flight work, and cancels stragglers via the shared kill switch.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use velus_common::{codes, Severity};
use velus_obs::trace;
use velus_obs::Recorder;

use crate::admit::{Admission, AdmitReject};
use crate::cache::{ArtifactCache, CacheConfig, CacheKey, Cached, CachedFailure};
use crate::cancel::{CancelReason, CancelToken};
use crate::pool::WorkerPool;
use crate::stats::{StatsCollector, StatsSnapshot};
use crate::{ArtifactKind, CompileRequest, Compiler, DiagRecord, FailureReport};

/// How long past the drain deadline the service waits for cooperative
/// cancellation to land after flipping the kill switch.
const DRAIN_GRACE: Duration = Duration::from_millis(500);

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Cache capacity (entry and byte caps).
    pub cache: CacheConfig,
    /// Structured-tracing recorder. When set, every request runs under
    /// a trace scope (queue wait, cache probe, pipeline passes, artifact
    /// handling) and the recorder's flight recorder retains the slowest
    /// requests' span trees. `None` (the default) keeps the service
    /// entirely trace-free.
    pub recorder: Option<Recorder>,
    /// Maximum outstanding admitted requests (queued + running); excess
    /// requests are shed with `E0801`. `None` (the default) admits
    /// everything.
    pub queue_cap: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            cache: CacheConfig::default(),
            recorder: None,
            queue_cap: None,
        }
    }
}

/// Why a request failed.
#[derive(Debug, Clone)]
pub enum ServiceError {
    /// The compiler reported an error (the usual case: bad input). The
    /// structured [`FailureReport`] carries every diagnostic's stable
    /// code, originating stage, severity and resolved position.
    Compile {
        /// The flattened, coded diagnostics of the failure.
        report: FailureReport,
    },
    /// The compiler panicked; the panic was contained to this request.
    Panic(String),
    /// The compiler returned no artifact for a requested kind — a bug in
    /// the [`Compiler`] implementation, surfaced loudly rather than
    /// served as a partial result.
    MissingArtifact(ArtifactKind),
    /// The worker executing the request disappeared before reporting
    /// (should not happen; a defensive placeholder, never silent).
    Lost,
    /// Admission control shed the request: the queue cap was exceeded
    /// (`E0801`). Retrying later, when load has receded, may succeed.
    Overloaded {
        /// Outstanding admitted requests at rejection time.
        queued: u64,
    },
    /// The request's deadline expired — while queued, or at a pass
    /// boundary of the compiler (`E0802`).
    DeadlineExceeded,
    /// The service is draining or shut down; the request was rejected
    /// or cancelled (`E0805`).
    Draining,
}

impl ServiceError {
    /// The structured, coded report of this failure — every variant
    /// yields at least one [`DiagRecord`] with a stable code, so shed
    /// and timed-out requests are machine-readable like compile errors.
    pub fn failure_report(&self) -> FailureReport {
        fn coded(code: velus_common::Code, message: String) -> FailureReport {
            FailureReport {
                diagnostics: vec![DiagRecord {
                    code: code.id,
                    severity: Severity::Error,
                    stage: velus_common::DiagStage::Driver.name(),
                    message,
                    line: 0,
                    col: 0,
                }],
            }
        }
        match self {
            ServiceError::Compile { report } => report.clone(),
            ServiceError::Panic(msg) => {
                FailureReport::from_message(format!("compiler panicked: {msg}"))
            }
            ServiceError::MissingArtifact(kind) => {
                FailureReport::from_message(format!("compiler produced no `{kind}` artifact"))
            }
            ServiceError::Lost => {
                FailureReport::from_message("request lost by the worker pool".to_owned())
            }
            ServiceError::Overloaded { queued } => coded(
                codes::E0801,
                format!("service overloaded: shed with {queued} requests outstanding"),
            ),
            ServiceError::DeadlineExceeded => {
                coded(codes::E0802, "request deadline exceeded".to_owned())
            }
            ServiceError::Draining => coded(
                codes::E0805,
                "service is draining; request rejected or cancelled".to_owned(),
            ),
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Compile { report } => write!(f, "{report}"),
            ServiceError::Panic(msg) => write!(f, "compiler panicked: {msg}"),
            ServiceError::MissingArtifact(kind) => {
                write!(f, "compiler produced no `{kind}` artifact")
            }
            ServiceError::Lost => f.write_str("request lost by the worker pool"),
            ServiceError::Overloaded { queued } => write!(
                f,
                "error[E0801]: service overloaded ({queued} requests outstanding)"
            ),
            ServiceError::DeadlineExceeded => f.write_str("error[E0802]: deadline exceeded"),
            ServiceError::Draining => f.write_str("error[E0805]: service draining"),
        }
    }
}

/// One served artifact of one request (a request yields one per
/// requested kind, in the request's kind order).
pub struct ArtifactReport<C: Compiler> {
    /// Which kind this artifact is.
    pub kind: ArtifactKind,
    /// The shared artifact.
    pub artifact: Arc<C::Artifact>,
    /// Whether *this kind* came from the cache (a mixed request can hit
    /// some kinds and compile others).
    pub cache_hit: bool,
}

/// The outcome of one request within a batch.
pub struct RequestReport<C: Compiler> {
    /// The request's label.
    pub name: String,
    /// The served artifacts (one per requested kind, in kind order), or
    /// the failure.
    pub result: Result<Vec<ArtifactReport<C>>, ServiceError>,
    /// Whether the request was answered entirely from the cache — every
    /// requested artifact, or a cached failure — so the pipeline did not
    /// run at all.
    pub cache_hit: bool,
    /// Non-fatal warnings the compilation emitted (empty when every
    /// kind was served from the cache — warnings surface when the
    /// pipeline actually runs).
    pub warnings: Vec<DiagRecord>,
    /// End-to-end latency of this request (queueing excluded; measured
    /// from when a worker picks it up).
    pub latency: Duration,
    /// 1 when the request was served (from the cache or by compiling),
    /// 0 when it never ran (shed at admission or expired while queued).
    pub attempts: u32,
}
impl<C: Compiler> RequestReport<C> {
    /// The served artifact of the given kind, if the request succeeded
    /// and asked for it.
    pub fn artifact(&self, kind: &ArtifactKind) -> Option<&Arc<C::Artifact>> {
        self.result
            .as_ref()
            .ok()?
            .iter()
            .find(|a| a.kind == *kind)
            .map(|a| &a.artifact)
    }

    /// The first served artifact (the request's primary kind), if any.
    /// For a default request this is the C artifact.
    pub fn primary(&self) -> Option<&Arc<C::Artifact>> {
        self.result.as_ref().ok()?.first().map(|a| &a.artifact)
    }
}

/// The outcome of a whole batch, in request order.
pub struct BatchReport<C: Compiler> {
    /// Per-request reports, positionally matching the submitted batch.
    pub items: Vec<RequestReport<C>>,
    /// Wall-clock time for the batch.
    pub wall: Duration,
}

impl<C: Compiler> BatchReport<C> {
    /// Number of successful requests.
    pub fn ok_count(&self) -> usize {
        self.items.iter().filter(|r| r.result.is_ok()).count()
    }

    /// Number of failed requests.
    pub fn err_count(&self) -> usize {
        self.items.len() - self.ok_count()
    }

    /// Number of requests served from the cache.
    pub fn hit_count(&self) -> usize {
        self.items.iter().filter(|r| r.cache_hit).count()
    }

    /// Number of requests shed at admission (overload or drain).
    pub fn shed_count(&self) -> usize {
        self.items
            .iter()
            .filter(|r| {
                matches!(
                    r.result,
                    Err(ServiceError::Overloaded { .. }) | Err(ServiceError::Draining)
                ) && r.attempts == 0
            })
            .count()
    }

    /// Requests per second over the batch wall time.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            f64::INFINITY
        } else {
            self.items.len() as f64 / secs
        }
    }
}

/// The outcome of a [`CompileService::drain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests still in flight when the drain deadline expired and the
    /// kill switch was flipped (each was cancelled cooperatively).
    pub cancelled: u64,
    /// Requests still outstanding when the drain returned — 0 unless a
    /// non-cooperative compilation outlived the grace period too.
    pub outstanding: u64,
    /// Wall-clock time the drain took.
    pub duration: Duration,
}

impl DrainReport {
    /// Whether every in-flight request completed before the deadline
    /// (nothing was cancelled, nothing left outstanding).
    pub fn clean(&self) -> bool {
        self.cancelled == 0 && self.outstanding == 0
    }
}

impl std::fmt::Display for DrainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.clean() {
            write!(f, "drain: clean in {:.1?}", self.duration)
        } else {
            write!(
                f,
                "drain: cancelled {} in-flight ({} unresponsive) in {:.1?}",
                self.cancelled, self.outstanding, self.duration
            )
        }
    }
}

/// A single request dispatched through [`CompileService::submit`].
pub struct Submission<C: Compiler> {
    admitted: bool,
    rx: mpsc::Receiver<RequestReport<C>>,
}

impl<C: Compiler> Submission<C> {
    /// Whether the request passed admission (a shed request still
    /// resolves — immediately, with its coded rejection).
    pub fn admitted(&self) -> bool {
        self.admitted
    }

    /// Blocks until the request's report is available.
    pub fn wait(self) -> RequestReport<C> {
        self.rx.recv().unwrap_or_else(|_| RequestReport {
            name: "<lost>".to_owned(),
            result: Err(ServiceError::Lost),
            cache_hit: false,
            warnings: Vec::new(),
            latency: Duration::ZERO,
            attempts: 0,
        })
    }
}

/// Everything a request's execution needs, shared once per job instead
/// of cloning several `Arc`s into every closure.
struct Inner<C: Compiler> {
    compiler: C,
    cache: ArtifactCache<C::Artifact>,
    stats: StatsCollector,
    in_flight: AtomicU64,
    admission: Admission,
    /// Drain/shutdown kill switch shared with every request token.
    kill: Arc<AtomicBool>,
}

impl<C: Compiler> Inner<C> {
    fn token_for(&self, req: &CompileRequest) -> CancelToken {
        CancelToken::for_request(
            req.deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            Arc::clone(&self.kill),
        )
    }
}

/// A parallel, cache-backed batch compilation service over any
/// [`Compiler`]. See the crate docs for the architecture.
pub struct CompileService<C: Compiler> {
    inner: Arc<Inner<C>>,
    pool: WorkerPool,
    recorder: Option<Recorder>,
}

impl<C: Compiler> CompileService<C> {
    /// Builds a service with its own worker pool and empty cache.
    pub fn new(compiler: C, config: ServiceConfig) -> CompileService<C> {
        CompileService {
            inner: Arc::new(Inner {
                compiler,
                cache: ArtifactCache::with_config(config.cache, Box::new(C::artifact_bytes)),
                stats: StatsCollector::new(),
                in_flight: AtomicU64::new(0),
                admission: Admission::new(config.queue_cap),
                kill: Arc::new(AtomicBool::new(false)),
            }),
            pool: WorkerPool::new(config.workers),
            recorder: config.recorder,
        }
    }

    /// The tracing recorder, when the service was configured with one
    /// (drain it for Chrome-trace output, query it for flight records).
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.pool.worker_count()
    }

    /// The wrapped compiler (e.g. to read a fault injector's counters).
    pub fn compiler(&self) -> &C {
        &self.inner.compiler
    }

    /// Worker threads that died (0 in a healthy service: panics are
    /// contained per request, and per-job as a second line of defense).
    pub fn dead_workers(&self) -> usize {
        self.pool.dead_workers()
    }

    /// Number of cache entries (artifacts and cached failures).
    pub fn cache_len(&self) -> usize {
        self.inner.cache.len()
    }

    /// Requests currently being compiled (approximate, for monitoring).
    pub fn in_flight(&self) -> u64 {
        self.inner.in_flight.load(Ordering::Relaxed)
    }

    /// Admitted requests not yet completed (queued + running).
    pub fn outstanding(&self) -> u64 {
        self.inner.admission.outstanding()
    }

    /// A point-in-time statistics snapshot (including the cache's
    /// occupancy and eviction counters, the in-flight queue depth, and
    /// the robustness counters).
    pub fn stats(&self) -> StatsSnapshot {
        self.inner
            .stats
            .snapshot(self.inner.cache.counters(), self.in_flight())
    }

    /// Drops every cached artifact and failure (for benchmarking cold
    /// paths).
    pub fn clear_cache(&self) {
        self.inner.cache.clear();
    }

    /// Compiles one request on the calling thread (same cache, deadline
    /// handling and accounting as a batch; traced when a recorder is
    /// configured — without a queue-wait interval, since nothing
    /// queued). Runs outside admission — it consumes no pool capacity —
    /// but a draining service rejects it.
    pub fn compile_one(&self, req: CompileRequest) -> RequestReport<C> {
        let _scope = self.recorder.as_ref().map(|rec| rec.scope(&req.name));
        if self.inner.admission.is_closed() {
            return rejected(&self.inner.stats, req.name, ServiceError::Draining);
        }
        let token = self.inner.token_for(&req);
        run_request(&self.inner, req, &token)
    }

    /// Dispatches one request to the worker pool without blocking: the
    /// open-loop entry point (arrivals are not gated on completions).
    /// A shed request resolves immediately with its coded rejection.
    pub fn submit(&self, req: CompileRequest) -> Submission<C> {
        let (tx, rx) = mpsc::channel();
        if let Err(reject) = self.inner.admission.try_admit() {
            let report = rejected(&self.inner.stats, req.name, reject_error(reject));
            let _ = tx.send(report);
            return Submission {
                admitted: false,
                rx,
            };
        }
        let token = self.inner.token_for(&req);
        let inner = Arc::clone(&self.inner);
        self.pool.execute(move || {
            let report = run_request(&inner, req, &token);
            inner.admission.release();
            let _ = tx.send(report);
        });
        Submission { admitted: true, rx }
    }

    /// Compiles a batch on the worker pool, submitting in request order,
    /// and reports per-request outcomes **in request order** (output
    /// order does not depend on worker count).
    ///
    /// Requests the admission layer sheds fail immediately with a coded
    /// [`ServiceError::Overloaded`]/[`ServiceError::Draining`] — their
    /// slots in the report are never silently dropped.
    pub fn compile_batch(&self, reqs: Vec<CompileRequest>) -> BatchReport<C> {
        let start = Instant::now();
        let n = reqs.len();
        let (tx, rx) = mpsc::channel::<(usize, RequestReport<C>)>();
        for (index, req) in reqs.into_iter().enumerate() {
            if let Err(reject) = self.inner.admission.try_admit() {
                let report = rejected(&self.inner.stats, req.name, reject_error(reject));
                let _ = tx.send((index, report));
                continue;
            }
            // The token starts now, at admission: queue wait counts
            // against the request's deadline.
            let token = self.inner.token_for(&req);
            let tx = tx.clone();
            let inner = Arc::clone(&self.inner);
            // The trace ID is allocated at submission so the queue-wait
            // interval (submit → worker pickup) can be keyed to it.
            let traced = self
                .recorder
                .clone()
                .map(|rec| (rec.new_trace(), rec.now_ns(), rec));
            self.pool.execute(move || {
                let _scope = traced.as_ref().map(|(trace_id, submit_ns, rec)| {
                    let scope = rec.scope_with(&req.name, *trace_id);
                    trace::complete(
                        "queue-wait",
                        *submit_ns,
                        rec.now_ns().saturating_sub(*submit_ns),
                    );
                    scope
                });
                let report = run_request(&inner, req, &token);
                inner.admission.release();
                // The receiver outlives the batch; a send failure means
                // the batch was abandoned, which compile_batch never does.
                let _ = tx.send((index, report));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<RequestReport<C>>> = (0..n).map(|_| None).collect();
        for (index, report) in rx {
            slots[index] = Some(report);
        }
        let items = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| RequestReport {
                    name: format!("request-{i}"),
                    result: Err(ServiceError::Lost),
                    cache_hit: false,
                    warnings: Vec::new(),
                    latency: Duration::ZERO,
                    attempts: 0,
                })
            })
            .collect();
        BatchReport {
            items,
            wall: start.elapsed(),
        }
    }

    /// Gracefully drains the service: closes admission (subsequent
    /// requests are rejected with `E0805`), waits up to `deadline` for
    /// admitted work to complete, then flips the shared kill switch so
    /// stragglers cancel cooperatively at their next check point. The
    /// drain duration is recorded in the statistics, so the final
    /// snapshot/Prometheus flush reflects it.
    ///
    /// Admission stays closed forever — draining is one-way. Work
    /// running via [`CompileService::compile_one`] on a caller's thread
    /// is cancelled by the kill switch but not waited for (it was never
    /// admitted).
    pub fn drain(&self, deadline: Duration) -> DrainReport {
        let start = Instant::now();
        self.inner.admission.close();
        let end = start + deadline;
        while self.inner.admission.outstanding() > 0 && Instant::now() < end {
            thread::sleep(Duration::from_micros(200));
        }
        let cancelled = self.inner.admission.outstanding();
        if cancelled > 0 {
            self.inner.kill.store(true, Ordering::Relaxed);
            let grace_end = end + DRAIN_GRACE;
            while self.inner.admission.outstanding() > 0 && Instant::now() < grace_end {
                thread::sleep(Duration::from_micros(200));
            }
        }
        let duration = start.elapsed();
        self.inner.stats.record_drain(duration.as_nanos() as u64);
        DrainReport {
            cancelled,
            outstanding: self.inner.admission.outstanding(),
            duration,
        }
    }

    /// Shuts the worker pool down, waiting up to the pool's shutdown
    /// timeout ([`crate::pool::DEFAULT_SHUTDOWN_TIMEOUT`]) for every
    /// worker to acknowledge.
    ///
    /// # Errors
    ///
    /// [`crate::ShutdownTimeout`] (`E0804`) when a worker fails to ack
    /// in time (its thread is detached, not joined — no hang).
    pub fn shutdown(&self) -> Result<(), crate::pool::ShutdownTimeout> {
        self.inner.admission.close();
        self.inner.kill.store(true, Ordering::Relaxed);
        self.pool.shutdown(self.pool.shutdown_timeout())
    }
}

fn reject_error(reject: AdmitReject) -> ServiceError {
    match reject {
        AdmitReject::Overloaded { queued } => ServiceError::Overloaded { queued },
        AdmitReject::Draining => ServiceError::Draining,
    }
}

/// Builds the immediate report of a request rejected at admission and
/// records it: one `shed` count plus its coded failure row.
fn rejected<C: Compiler>(
    stats: &StatsCollector,
    name: String,
    err: ServiceError,
) -> RequestReport<C> {
    stats.record_shed();
    stats.record_failure_codes(&err.failure_report().codes());
    RequestReport {
        name,
        result: Err(err),
        cache_hit: false,
        warnings: Vec::new(),
        latency: Duration::ZERO,
        attempts: 0,
    }
}

fn cancel_to_error(reason: CancelReason) -> ServiceError {
    match reason {
        CancelReason::Deadline => ServiceError::DeadlineExceeded,
        CancelReason::Shutdown => ServiceError::Draining,
    }
}

/// The per-request path: the cancellation gate, then [`serve`], then
/// accounting. Runs on a worker (batch/submit) or the caller
/// (`compile_one`).
fn run_request<C: Compiler>(
    inner: &Inner<C>,
    req: CompileRequest,
    token: &CancelToken,
) -> RequestReport<C> {
    let start = Instant::now();
    inner.stats.record_request();
    inner.in_flight.fetch_add(1, Ordering::Relaxed);
    // A request that expired while queued never runs.
    let (attempts, cache_hit, warnings, result) = match token.state() {
        Some(reason) => (0, false, Vec::new(), Err(cancel_to_error(reason))),
        None => {
            let (hit, warnings, result) = serve(inner, &req, token);
            (1, hit, warnings, result)
        }
    };
    match &result {
        // Compile errors and panics are disjoint counters.
        Err(ServiceError::Compile { report }) => {
            inner.stats.record_error();
            inner.stats.record_failure_codes(&report.codes());
        }
        Err(ServiceError::Panic(_)) => inner.stats.record_panic(),
        Err(ServiceError::DeadlineExceeded) => {
            inner.stats.record_deadline_exceeded();
            inner.stats.record_failure_codes(&[codes::E0802.id]);
        }
        Err(ServiceError::Draining) => {
            inner.stats.record_failure_codes(&[codes::E0805.id]);
        }
        _ => {}
    }
    let latency = start.elapsed();
    inner.stats.record_latency(latency.as_nanos() as u64);
    inner.in_flight.fetch_sub(1, Ordering::Relaxed);
    RequestReport {
        name: req.name,
        result,
        cache_hit,
        warnings,
        latency,
        attempts,
    }
}

/// Serves one request: per-kind cache probe, then — unless the cache
/// answered everything, artifacts or a failure — one guarded compile of
/// the missing kinds, whose artifacts or failure fill the cache.
/// Returns whether the cache answered, the compile's warnings, and the
/// outcome.
#[allow(clippy::type_complexity)]
fn serve<C: Compiler>(
    inner: &Inner<C>,
    req: &CompileRequest,
    token: &CancelToken,
) -> (
    bool,
    Vec<DiagRecord>,
    Result<Vec<ArtifactReport<C>>, ServiceError>,
) {
    let kinds = req.options.effective_kinds();
    let keys: Vec<CacheKey> = kinds
        .iter()
        .map(|kind| CacheKey::of_request(req, kind))
        .collect();
    let probe = trace::enter("cache-probe");
    let mut slots: Vec<Option<Arc<C::Artifact>>> = Vec::with_capacity(kinds.len());
    let mut failure: Option<Arc<CachedFailure>> = None;
    for (kind, key) in kinds.iter().zip(&keys) {
        let found = match inner.cache.lookup(key, req, kind) {
            Some(Cached::Artifact(artifact)) => Some(artifact),
            // A failure replays only to a request asking for every kind
            // it failed for; a request for fewer kinds may still compile.
            Some(Cached::Failure(f)) if f.kinds.iter().all(|k| kinds.contains(k)) => {
                failure = Some(f);
                None
            }
            _ => None,
        };
        slots.push(found);
    }
    let all_hit = failure.is_some() || slots.iter().all(Option::is_some);
    for (kind, slot) in kinds.iter().zip(&slots) {
        let hit = failure.is_some() || slot.is_some();
        inner.stats.record_kind(kind, hit);
        if trace::active() {
            let outcome = if hit { "hit" } else { "miss" };
            trace::instant("probe", Some(format!("{kind}:{outcome}")));
        }
    }
    trace::exit(probe);
    if all_hit {
        inner.stats.record_hit();
    } else {
        inner.stats.record_miss();
    }
    if let Some(failure) = failure {
        return (true, Vec::new(), Err(failure.error.clone()));
    }

    let missing: Vec<usize> = (0..kinds.len()).filter(|&i| slots[i].is_none()).collect();
    let mut warnings: Vec<DiagRecord> = Vec::new();
    if !missing.is_empty() {
        let missing_kinds: Vec<ArtifactKind> = missing.iter().map(|&i| kinds[i]).collect();
        match compile_guarded(inner, req, &missing_kinds, token) {
            Ok(output) => {
                let _store = trace::span("cache-fill");
                inner.stats.record_warnings(output.warnings.len() as u64);
                inner
                    .stats
                    .record_lint_codes(output.warnings.iter().map(|w| w.code));
                warnings = output.warnings;
                for (kind, artifact) in output.artifacts {
                    // Only requested-and-missing kinds are admitted; a
                    // compiler returning extras (or duplicates) does not
                    // grow the cache beyond what was asked for.
                    let Some(slot) =
                        (0..kinds.len()).find(|&i| kinds[i] == kind && slots[i].is_none())
                    else {
                        continue;
                    };
                    slots[slot] = Some(inner.cache.insert(keys[slot], req, kind, artifact));
                }
            }
            Err(error) => {
                // A compile error or a panic is a property of the input:
                // cache it under every kind it was asked for.
                // Cancellations depend on timing and are not cached.
                if matches!(error, ServiceError::Compile { .. } | ServiceError::Panic(_)) {
                    let _store = trace::span("cache-fill");
                    let failure = Arc::new(CachedFailure {
                        kinds: missing_kinds,
                        error: error.clone(),
                    });
                    for &i in &missing {
                        inner
                            .cache
                            .insert_failure(keys[i], req, kinds[i], Arc::clone(&failure));
                    }
                }
                return (false, Vec::new(), Err(error));
            }
        }
    }

    let mut artifacts: Vec<ArtifactReport<C>> = Vec::with_capacity(kinds.len());
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(artifact) => artifacts.push(ArtifactReport {
                kind: kinds[i],
                artifact,
                cache_hit: !missing.contains(&i),
            }),
            None => {
                return (
                    all_hit,
                    warnings,
                    Err(ServiceError::MissingArtifact(kinds[i])),
                )
            }
        }
    }
    (all_hit, warnings, Ok(artifacts))
}

/// Runs the compiler with its panics contained, and maps a failure
/// carrying a cancellation code back to the service-level condition.
fn compile_guarded<C: Compiler>(
    inner: &Inner<C>,
    req: &CompileRequest,
    kinds: &[ArtifactKind],
    token: &CancelToken,
) -> Result<crate::CompileOutput<C::Artifact>, ServiceError> {
    let guard = trace::enter("compile");
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        inner.compiler.compile(req, kinds, token)
    }));
    trace::exit(guard);
    match outcome {
        Ok(Ok(output)) => {
            inner.stats.record_stages(&output.samples);
            Ok(output)
        }
        Ok(Err(report)) => {
            let failure_codes = report.codes();
            Err(if failure_codes.contains(&codes::E0802.id) {
                ServiceError::DeadlineExceeded
            } else if failure_codes.contains(&codes::E0805.id) {
                ServiceError::Draining
            } else {
                ServiceError::Compile { report }
            })
        }
        Err(panic) => Err(ServiceError::Panic(panic_message(panic.as_ref()))),
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompileOptions, StageSample};

    /// A toy compiler: uppercases the source; `source == "BOOM"` panics,
    /// `source == "ERR"` errors (uncoded, `E0000`), `source == "SLOW"`
    /// spins cooperatively until cancelled, and each compile counts its
    /// invocations so cache hits are observable as invocation counts.
    struct Toy {
        calls: AtomicU64,
    }

    impl Toy {
        fn new() -> Toy {
            Toy {
                calls: AtomicU64::new(0),
            }
        }
    }

    impl Compiler for Toy {
        type Artifact = String;

        fn compile(
            &self,
            req: &CompileRequest,
            kinds: &[ArtifactKind],
            cancel: &CancelToken,
        ) -> Result<crate::CompileOutput<String>, FailureReport> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            match req.source.as_str() {
                "BOOM" => panic!("toy compiler exploded"),
                "ERR" => Err(FailureReport::from_message("toy compile error".to_owned())),
                "SLOW" => {
                    // Spin in short slices like a cooperative pipeline
                    // checking the token at pass boundaries (bounded as
                    // a failsafe so a broken drain cannot hang the
                    // tests), then fail with the token's code — the
                    // shape the real pipeline produces.
                    for _ in 0..30_000 {
                        if let Some(reason) = cancel.state() {
                            return Err(FailureReport {
                                diagnostics: vec![DiagRecord {
                                    code: reason.code(),
                                    severity: Severity::Error,
                                    stage: "driver",
                                    message: "cancelled".to_owned(),
                                    line: 0,
                                    col: 0,
                                }],
                            });
                        }
                        thread::sleep(Duration::from_millis(1));
                    }
                    Err(FailureReport::from_message(
                        "slow request was never cancelled".to_owned(),
                    ))
                }
                "FORGETFUL" => Ok(crate::CompileOutput::new(Vec::new(), Vec::new())),
                src => Ok(crate::CompileOutput::new(
                    kinds
                        .iter()
                        .map(|kind| {
                            let body = match kind {
                                ArtifactKind::CCode => src.to_uppercase(),
                                other => format!("{other}:{}", src.to_uppercase()),
                            };
                            (*kind, body)
                        })
                        .collect(),
                    vec![StageSample {
                        stage: crate::Stage::Frontend,
                        nanos: 5,
                    }],
                )
                .with_warnings(if src == "warny" {
                    vec![crate::DiagRecord {
                        code: "W0102",
                        severity: velus_common::Severity::Warning,
                        stage: "elaborate",
                        message: "toy warning".to_owned(),
                        line: 1,
                        col: 1,
                    }]
                } else {
                    Vec::new()
                })),
            }
        }
    }

    fn service(workers: usize) -> CompileService<Toy> {
        CompileService::new(
            Toy::new(),
            ServiceConfig {
                workers,
                ..Default::default()
            },
        )
    }

    fn calls(svc: &CompileService<Toy>) -> u64 {
        svc.inner.compiler.calls.load(Ordering::SeqCst)
    }

    #[test]
    fn batch_results_are_in_request_order() {
        let svc = service(4);
        let reqs: Vec<CompileRequest> = (0..32)
            .map(|i| CompileRequest::new(format!("r{i}"), format!("src{i}")))
            .collect();
        let batch = svc.compile_batch(reqs);
        assert_eq!(batch.ok_count(), 32);
        for (i, item) in batch.items.iter().enumerate() {
            assert_eq!(item.name, format!("r{i}"));
            assert_eq!(**item.primary().unwrap(), format!("SRC{i}"));
            assert_eq!(item.attempts, 1);
        }
    }

    #[test]
    fn warm_requests_hit_the_cache_and_skip_the_compiler() {
        let svc = service(2);
        let reqs: Vec<CompileRequest> = (0..8)
            .map(|i| CompileRequest::new(format!("r{i}"), format!("s{i}")))
            .collect();
        let cold = svc.compile_batch(reqs.clone());
        assert_eq!(cold.hit_count(), 0);
        let calls_after_cold = calls(&svc);
        let warm = svc.compile_batch(reqs);
        assert_eq!(warm.hit_count(), 8);
        // The compiler ran zero additional times: the pipeline was skipped.
        assert_eq!(calls(&svc), calls_after_cold);
        // And the artifacts are the identical allocations.
        for (a, b) in cold.items.iter().zip(&warm.items) {
            assert!(Arc::ptr_eq(a.primary().unwrap(), b.primary().unwrap()));
        }
        let stats = svc.stats();
        assert_eq!(
            (stats.requests, stats.cache_hits, stats.cache_misses),
            (16, 8, 8)
        );
    }

    #[test]
    fn equal_content_under_different_names_shares_one_artifact() {
        let svc = service(2);
        let batch = svc.compile_batch(vec![
            CompileRequest::new("a", "same"),
            CompileRequest::new("b", "same"),
        ]);
        assert_eq!(batch.ok_count(), 2);
        assert_eq!(svc.cache_len(), 1);
    }

    #[test]
    fn errors_and_panics_are_contained_per_request() {
        let svc = service(2);
        let batch = svc.compile_batch(vec![
            CompileRequest::new("good1", "alpha"),
            CompileRequest::new("bad", "ERR"),
            CompileRequest::new("ugly", "BOOM"),
            CompileRequest::new("good2", "beta"),
        ]);
        assert_eq!(batch.ok_count(), 2);
        match &batch.items[1].result {
            Err(ServiceError::Compile { report }) => {
                // An uncoded failure is the E0000 record.
                assert_eq!(report.primary_code(), Some("E0000"));
                assert!(report.to_string().contains("toy compile error"), "{report}");
            }
            other => panic!("expected a compile error, got ok={}", other.is_ok()),
        }
        match &batch.items[2].result {
            Err(ServiceError::Panic(msg)) => assert!(msg.contains("exploded"), "{msg}"),
            other => panic!("expected a contained panic, got {:?}", other.is_ok()),
        }
        // The pool survives and serves subsequent batches.
        let after = svc.compile_batch(vec![CompileRequest::new("again", "gamma")]);
        assert_eq!(after.ok_count(), 1);
        assert_eq!(svc.dead_workers(), 0);
        // Errors and panics are disjoint counters: 1 compile error, 1
        // contained panic.
        let stats = svc.stats();
        assert_eq!((stats.errors, stats.panics), (1, 1));
    }

    #[test]
    fn failures_compile_once_and_replay_from_the_cache() {
        let svc = service(2);
        let batch = || {
            svc.compile_batch(vec![
                CompileRequest::new("bad", "ERR"),
                CompileRequest::new("ugly", "BOOM"),
                CompileRequest::new("good", "fine"),
            ])
        };
        let first = batch();
        assert_eq!(calls(&svc), 3);
        for pass in [batch(), batch()] {
            // Neither the failing nor the panicking input reaches the
            // compiler again, and both replay what they first failed with.
            assert_eq!(calls(&svc), 3);
            assert_eq!(pass.hit_count(), 3);
            for (was, now) in first.items.iter().zip(&pass.items) {
                match (&was.result, &now.result) {
                    (Ok(_), Ok(_)) => {}
                    (Err(a), Err(b)) => {
                        assert_eq!(
                            std::mem::discriminant(a),
                            std::mem::discriminant(b),
                            "{}",
                            now.name
                        );
                        assert_eq!(a.failure_report().codes(), b.failure_report().codes());
                        assert_eq!(a.to_string(), b.to_string());
                    }
                    _ => panic!("{}: outcome changed between passes", now.name),
                }
            }
            assert!(matches!(pass.items[1].result, Err(ServiceError::Panic(_))));
        }
        // The counters are per request: three failed requests of each.
        let stats = svc.stats();
        assert_eq!((stats.errors, stats.panics), (3, 3));
        assert_eq!(stats.failure_codes, vec![("E0000", 3)]);
        // The same content under another name is the same function call.
        let renamed = svc.compile_one(CompileRequest::new("bad2", "ERR"));
        assert!(renamed.cache_hit && renamed.result.is_err());
        assert_eq!(calls(&svc), 3);
    }

    #[test]
    fn a_failure_replays_only_to_requests_asking_for_all_its_kinds() {
        let svc = service(1);
        let both = CompileOptions::for_kinds(vec![ArtifactKind::CCode, ArtifactKind::BaselineDiff]);
        let req = CompileRequest::new("r", "ERR").with_options(both);
        assert!(svc.compile_one(req.clone()).result.is_err());
        assert_eq!(calls(&svc), 1);
        // The same kind set replays.
        assert!(svc.compile_one(req).cache_hit);
        assert_eq!(calls(&svc), 1);
        // A request for one of the kinds may still compile (here it
        // fails too), and its own failure then replays.
        let one = CompileRequest::new("r", "ERR");
        assert!(!svc.compile_one(one.clone()).cache_hit);
        assert!(svc.compile_one(one).cache_hit);
        assert_eq!(calls(&svc), 2);
    }

    #[test]
    fn an_expired_deadline_is_not_cached() {
        let svc = service(1);
        let slow = CompileRequest::new("slow", "SLOW");
        let expired = svc.compile_one(slow.clone().with_deadline_ms(20));
        assert!(matches!(
            expired.result,
            Err(ServiceError::DeadlineExceeded)
        ));
        assert_eq!(calls(&svc), 1);
        assert_eq!(svc.cache_len(), 0);
        // Without a deadline, the same request compiles again (and is
        // cancelled by the drain instead of replaying E0802).
        let sub = svc.submit(slow);
        let began = Instant::now();
        while calls(&svc) < 2 {
            assert!(began.elapsed() < Duration::from_secs(10), "never compiled");
            thread::sleep(Duration::from_millis(1));
        }
        svc.drain(Duration::from_millis(10));
        assert!(matches!(sub.wait().result, Err(ServiceError::Draining)));
        assert_eq!(svc.cache_len(), 0, "cancellations are never cached");
    }

    #[test]
    fn stats_snapshot_reflects_stage_samples() {
        let svc = service(1);
        svc.compile_one(CompileRequest::new("r", "x"));
        let stats = svc.stats();
        let frontend = &stats.stages[crate::Stage::Frontend.index()];
        assert_eq!(frontend.count, 1);
        assert_eq!(frontend.p50_nanos, 5);
    }

    #[test]
    fn a_capped_cache_evicts_and_the_evictee_recompiles() {
        let svc = CompileService::new(
            Toy::new(),
            ServiceConfig {
                workers: 1,
                cache: crate::CacheConfig {
                    max_entries: Some(1),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let (ra, rb) = (
            CompileRequest::new("a", "one"),
            CompileRequest::new("b", "two"),
        );
        svc.compile_one(ra.clone());
        svc.compile_one(rb.clone()); // evicts `a` (cap 1)
        let stats = svc.stats();
        assert_eq!((stats.cache_entries, stats.cache_evictions), (1, 1));
        // `a` was evicted: its next request misses, recompiles, and the
        // fresh artifact verifies against the request content again.
        let again = svc.compile_one(ra);
        assert!(!again.cache_hit);
        assert_eq!(**again.primary().unwrap(), "ONE");
        assert_eq!(calls(&svc), 3);
        assert!(svc.stats().cache_evictions >= 1);
        let _ = rb;
    }

    #[test]
    fn multi_kind_requests_compile_once_and_cache_per_kind() {
        let svc = service(2);
        let kinds = vec![ArtifactKind::CCode, ArtifactKind::BaselineDiff];
        let req =
            CompileRequest::new("r", "x").with_options(CompileOptions::for_kinds(kinds.clone()));
        let cold = svc.compile_one(req.clone());
        let artifacts = cold.result.as_ref().unwrap();
        assert_eq!(artifacts.len(), 2);
        assert_eq!(*artifacts[0].artifact, "X");
        assert_eq!(*artifacts[1].artifact, "baseline-diff:X");
        // One compiler invocation produced both kinds; both were cached
        // under separate keys.
        assert_eq!(calls(&svc), 1);
        assert_eq!(svc.cache_len(), 2);

        // A request for just one of the kinds hits that kind's entry.
        let one = svc.compile_one(
            CompileRequest::new("r", "x")
                .with_options(CompileOptions::for_kinds(vec![ArtifactKind::BaselineDiff])),
        );
        assert!(one.cache_hit);
        assert!(Arc::ptr_eq(
            one.artifact(&ArtifactKind::BaselineDiff).unwrap(),
            &artifacts[1].artifact
        ));
        assert_eq!(calls(&svc), 1);

        // A request widening the kind set compiles only the missing kind.
        let wider = svc.compile_one(req.with_options(CompileOptions::for_kinds(vec![
            ArtifactKind::CCode,
            ArtifactKind::BaselineDiff,
            ArtifactKind::IrDump {
                stage: crate::IrStageKind::Obc,
            },
        ])));
        assert!(!wider.cache_hit, "a new kind forces a compile");
        let wider_artifacts = wider.result.as_ref().unwrap();
        assert_eq!(wider_artifacts.len(), 3);
        assert!(wider_artifacts[0].cache_hit, "the C entry was reused");
        assert!(wider_artifacts[1].cache_hit);
        assert!(!wider_artifacts[2].cache_hit);
        assert_eq!(svc.cache_len(), 3);

        // Per-kind stats rows saw every kind request.
        let stats = svc.stats();
        let row = |name: &str| *stats.kinds.iter().find(|k| k.kind == name).unwrap();
        assert_eq!((row("c").requests, row("c").hits), (2, 1));
        assert_eq!(
            (row("baseline-diff").requests, row("baseline-diff").hits),
            (3, 2)
        );
        assert_eq!((row("ir-dump").requests, row("ir-dump").hits), (1, 0));
    }

    #[test]
    fn a_compiler_omitting_a_kind_is_a_loud_error() {
        let svc = service(1);
        let report = svc.compile_one(CompileRequest::new("r", "FORGETFUL"));
        assert!(matches!(
            report.result,
            Err(ServiceError::MissingArtifact(ArtifactKind::CCode))
        ));
        // Nothing was cached for the failed request.
        assert_eq!(svc.cache_len(), 0);
    }

    #[test]
    fn warnings_and_failure_codes_reach_the_stats() {
        let svc = service(1);
        // A cold compile surfaces its warnings on the report and counts
        // them in the statistics.
        let cold = svc.compile_one(CompileRequest::new("w", "warny"));
        assert_eq!(cold.warnings.len(), 1);
        assert_eq!(cold.warnings[0].code, "W0102");
        // A warm request skips the pipeline: no (re-)warnings.
        let warm = svc.compile_one(CompileRequest::new("w", "warny"));
        assert!(warm.cache_hit && warm.warnings.is_empty());
        // Failures count under their codes.
        let _ = svc.compile_one(CompileRequest::new("bad", "ERR"));
        let stats = svc.stats();
        assert_eq!(stats.warnings, 1);
        assert_eq!(stats.failure_codes, vec![("E0000", 1)]);
        // The warning carried a registered lint code: its per-code row
        // counts the cold compile once (the warm hit adds nothing).
        assert_eq!(stats.lint_codes, vec![("W0102", 1)]);
        let rendered = stats.to_string();
        assert!(rendered.contains("warnings 1"), "{rendered}");
        assert!(rendered.contains("failures by code: E0000:1"), "{rendered}");
    }

    #[test]
    fn a_zero_queue_cap_sheds_every_request_with_coded_errors() {
        let svc = CompileService::new(
            Toy::new(),
            ServiceConfig {
                workers: 2,
                queue_cap: Some(0),
                ..Default::default()
            },
        );
        let batch = svc.compile_batch(vec![
            CompileRequest::new("a", "x"),
            CompileRequest::new("b", "y"),
            CompileRequest::new("c", "z"),
        ]);
        assert_eq!(batch.ok_count(), 0);
        assert_eq!(batch.shed_count(), 3);
        for item in &batch.items {
            match &item.result {
                Err(err @ ServiceError::Overloaded { .. }) => {
                    assert_eq!(err.failure_report().primary_code(), Some("E0801"));
                    assert_eq!(item.attempts, 0);
                }
                other => panic!("expected Overloaded, got ok={}", other.is_ok()),
            }
        }
        let stats = svc.stats();
        assert_eq!((stats.shed, stats.requests), (3, 0));
        assert_eq!(stats.failure_codes, vec![("E0801", 3)]);
        assert_eq!(calls(&svc), 0);
    }

    #[test]
    fn an_expired_deadline_rejects_before_compiling() {
        let svc = service(1);
        let report = svc.compile_one(CompileRequest::new("d", "x").with_deadline_ms(0));
        match &report.result {
            Err(err @ ServiceError::DeadlineExceeded) => {
                assert_eq!(err.failure_report().primary_code(), Some("E0802"));
            }
            other => panic!("expected DeadlineExceeded, got ok={}", other.is_ok()),
        }
        assert_eq!(report.attempts, 0);
        let stats = svc.stats();
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.failure_codes, vec![("E0802", 1)]);
        assert_eq!(calls(&svc), 0);
        // A generous deadline compiles normally.
        let ok = svc.compile_one(CompileRequest::new("d2", "y").with_deadline_ms(60_000));
        assert!(ok.result.is_ok());
    }

    #[test]
    fn drain_completes_quiet_services_cleanly() {
        let svc = service(2);
        let batch = svc.compile_batch(vec![CompileRequest::new("a", "x")]);
        assert_eq!(batch.ok_count(), 1);
        let drained = svc.drain(Duration::from_secs(5));
        assert!(drained.clean(), "{drained}");
        // Admission is closed: everything afterwards is rejected with a
        // coded error, through every entry point.
        let after = svc.compile_batch(vec![CompileRequest::new("late", "y")]);
        assert!(matches!(after.items[0].result, Err(ServiceError::Draining)));
        assert!(matches!(
            svc.compile_one(CompileRequest::new("later", "z")).result,
            Err(ServiceError::Draining)
        ));
        let sub = svc.submit(CompileRequest::new("latest", "w"));
        assert!(!sub.admitted());
        assert!(matches!(sub.wait().result, Err(ServiceError::Draining)));
        let stats = svc.stats();
        assert_eq!(stats.drains, 1);
        assert_eq!(stats.shed, 3);
    }

    #[test]
    fn drain_cancels_in_flight_work_by_the_deadline_without_losing_counts() {
        let svc = service(2);
        // Occupy both workers with cooperative slow compilations and
        // queue a third request behind them.
        let s1 = svc.submit(CompileRequest::new("slow1", "SLOW"));
        let s2 = svc.submit(CompileRequest::new("slow2", "SLOW"));
        let s3 = svc.submit(CompileRequest::new("queued", "x"));
        assert!(s1.admitted() && s2.admitted() && s3.admitted());
        // Wait until both slow compilations actually started.
        let began = Instant::now();
        while calls(&svc) < 2 {
            assert!(
                began.elapsed() < Duration::from_secs(10),
                "workers never started"
            );
            thread::sleep(Duration::from_millis(1));
        }
        let drained = svc.drain(Duration::from_millis(100));
        // The slow requests could not finish by the deadline: they were
        // cancelled cooperatively; nothing is left outstanding.
        assert!(drained.cancelled >= 2, "{drained}");
        assert_eq!(drained.outstanding, 0, "{drained}");
        assert!(!drained.clean());
        // Every submission resolves — no lost requests.
        let r1 = s1.wait();
        let r2 = s2.wait();
        let r3 = s3.wait();
        for r in [&r1, &r2] {
            assert!(
                matches!(r.result, Err(ServiceError::Draining)),
                "slow requests resolve as cancelled-by-drain"
            );
        }
        // The queued request either completed before the kill switch or
        // was rejected by it — never lost.
        assert!(
            r3.result.is_ok() || matches!(r3.result, Err(ServiceError::Draining)),
            "queued request must resolve"
        );
        let stats = svc.stats();
        assert_eq!(stats.requests, 3, "all admitted requests were accounted");
        assert_eq!(stats.drains, 1);
        assert!(stats.drain_ns > 0);
        assert_eq!(svc.dead_workers(), 0);
        // The failure rows carry the drain code for the cancelled work.
        assert!(
            stats.failure_codes.iter().any(|(c, _)| *c == "E0805"),
            "{:?}",
            stats.failure_codes
        );
    }

    #[test]
    fn submit_resolves_like_compile_one() {
        let svc = service(2);
        let ok = svc.submit(CompileRequest::new("s", "hello")).wait();
        assert_eq!(**ok.primary().unwrap(), "HELLO");
        assert_eq!(ok.attempts, 1);
        let warm = svc.submit(CompileRequest::new("s", "hello")).wait();
        assert!(warm.cache_hit);
    }

    #[test]
    fn service_shutdown_is_acknowledged() {
        let svc = service(2);
        assert_eq!(
            svc.compile_batch(vec![CompileRequest::new("a", "x")])
                .ok_count(),
            1
        );
        svc.shutdown().expect("idle workers ack shutdown promptly");
    }
}
