//! The evaluation service: one typed, memoized entry point for every
//! transient the analysis layers run.
//!
//! The paper's whole method is answering many closely-related simulation
//! questions about one column: result planes, the `Vsa(R)` threshold
//! curve, border bisection, and per-stress probes all revisit overlapping
//! `(design, stress, defect, R, sequence)` points. [`EvalService`] makes
//! that reuse structural instead of accidental:
//!
//! * every elementary measurement is expressed as a [`SimRequest`] — a
//!   typed IR with a stable 64-bit content key hashed from canonicalized
//!   `f64` bits (see [`dso_num::fingerprint`]),
//! * results are memoized in a content-keyed cache with in-flight
//!   deduplication, so a border bisection that lands on a plane grid
//!   point, or a shmoo grid overlapping a campaign, replays the stored
//!   bits instead of re-solving,
//! * batches fan out through [`crate::exec::map_chunked`], preserving the
//!   chunk-keyed determinism and warm-start chains of the campaign
//!   executor,
//! * hit/miss/dedup counters are recorded into `dso-obs` (`eval.*`).
//!
//! # Determinism contract
//!
//! Warm-start seeds are **not** part of the content key: a request's
//! cached value is whatever the first execution produced, including its
//! seed-dependent last bits. For a fixed request set this is exactly the
//! determinism contract campaigns already have — a cold run produces the
//! same bits at every thread count (chunk-keyed seed chains), and a
//! cached re-run replays those bits (values *and* recovery stats)
//! verbatim. Cross-workload reuse (a shmoo hitting a campaign's points)
//! replays the campaign's seed-chain bits, which may differ in the last
//! floating-point bits from what a cold shmoo would have computed; border
//! tolerances (≥ 3 %) dwarf this. Cache hits return no trace, so a
//! partially-cached chunk restarts its seed chain at the next computed
//! point — seeds never cross a cache hit.
//!
//! Failed requests are never cached (a fault-injected or diverged point
//! must not poison later campaigns), and requests with an armed fault
//! plan bypass the cache entirely in both directions.
//!
//! # Disk tier
//!
//! A service may carry a [`ResultStore`] (attach one with
//! [`EvalService::with_store`], or set `DSO_STORE=<path>` and build with
//! [`EvalService::from_env`]). The store is a write-through second cache
//! tier: lookups fall through memory → disk → compute, and every
//! computed success is appended to disk as well as memoized. Because
//! stored records replay values *and* recovery stats bit-identically, a
//! campaign killed mid-run and restarted against the same store resumes
//! from its completed points. Fault-armed requests bypass the disk tier
//! exactly as they bypass the memo cache, and failures are never
//! persisted. Store append failures degrade durability, never
//! correctness — the result is still served from memory.

use crate::analysis::{Analyzer, DetectionCondition};
use crate::exec::{self, CampaignConfig};
use crate::store::ResultStore;
use crate::CoreError;
use dso_defects::Defect;
use dso_dram::design::OperatingPoint;
use dso_dram::ops::{fingerprint_ops, OpTrace, Operation};
use dso_num::chaos::FaultPlan;
use dso_num::fingerprint::Fingerprint;
use dso_spice::recovery::RecoveryStats;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Condvar, Mutex};

/// The generation of the request kinds, folded into every service's
/// context key ([`EvalService::context_for`]). Bump it whenever a
/// [`SimTask`] changes its meaning, its value or its key, so that a store
/// written before the change drops the records no request looks up any
/// more (compaction at open) instead of carrying them forever.
///
/// 1: `Run` split into `Run` and `Detection` (stores written before carry
/// no schema in their context).
const REQUEST_SCHEMA: u64 = 1;

/// The simulation task a request asks for, together with its payload.
///
/// Any change to what a task computes or how it is keyed bumps
/// `REQUEST_SCHEMA`.
#[derive(Debug, Clone, PartialEq)]
pub enum SimTask {
    /// `n_ops` consecutive physical writes of `high` (settlement curves);
    /// the `w0` variant is preceded by two unreported `w1` setup writes.
    Settle {
        /// Physical level written.
        high: bool,
        /// Number of reported writes.
        n_ops: usize,
    },
    /// An arbitrary logic-operation sequence from `vc_init`, reporting the
    /// cell voltage after every cycle and the logic value of every read.
    Run {
        /// Logic operations, in order.
        seq: Vec<Operation>,
        /// Initial cell voltage.
        vc_init: f64,
    },
    /// A detection condition's logic sequence from `vc_init`, reporting
    /// only the logic value of every read: the transient stops at the last
    /// read's observation instant.
    Detection {
        /// Logic operations, in order.
        seq: Vec<Operation>,
        /// Initial cell voltage.
        vc_init: f64,
    },
    /// The sense-amplifier threshold `Vsa` found by bisection on
    /// single-read outcomes.
    Vsa,
    /// Cell voltage at word-line closing of a single physical write of
    /// `high`, starting from the opposite rail.
    WriteEnd {
        /// Physical level written.
        high: bool,
    },
}

impl SimTask {
    fn fingerprint_into(&self, fp: &mut Fingerprint) {
        match self {
            SimTask::Settle { high, n_ops } => {
                fp.write_u8(0);
                fp.write_bool(*high);
                fp.write_usize(*n_ops);
            }
            SimTask::Run { seq, vc_init } => {
                fp.write_u8(1);
                fingerprint_ops(seq, fp);
                fp.write_f64(*vc_init);
            }
            SimTask::Vsa => fp.write_u8(2),
            SimTask::WriteEnd { high } => {
                fp.write_u8(3);
                fp.write_bool(*high);
            }
            SimTask::Detection { seq, vc_init } => {
                fp.write_u8(4);
                fingerprint_ops(seq, fp);
                fp.write_f64(*vc_init);
            }
        }
    }
}

/// A simulation request: the full identity of one transient measurement.
///
/// Together with the service's context key (column design + recovery
/// policy), the request determines the result bit-for-bit — which is what
/// makes the content key a sound cache key.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRequest {
    defect: Defect,
    resistance: f64,
    op_point: OperatingPoint,
    task: SimTask,
}

impl SimRequest {
    /// A settlement-sequence request (the write planes' primitive).
    pub fn settle(
        defect: &Defect,
        resistance: f64,
        op_point: &OperatingPoint,
        high: bool,
        n_ops: usize,
    ) -> Self {
        SimRequest {
            defect: *defect,
            resistance,
            op_point: *op_point,
            task: SimTask::Settle { high, n_ops },
        }
    }

    /// An arbitrary operation-sequence request.
    pub fn run(
        defect: &Defect,
        resistance: f64,
        op_point: &OperatingPoint,
        seq: Vec<Operation>,
        vc_init: f64,
    ) -> Self {
        SimRequest {
            defect: *defect,
            resistance,
            op_point: *op_point,
            task: SimTask::Run { seq, vc_init },
        }
    }

    /// A read-sequence request: `n_ops` consecutive reads from `vc_init`
    /// (the read plane's primitive).
    pub fn reads(
        defect: &Defect,
        resistance: f64,
        op_point: &OperatingPoint,
        vc_init: f64,
        n_ops: usize,
    ) -> Self {
        SimRequest::run(
            defect,
            resistance,
            op_point,
            vec![Operation::R; n_ops],
            vc_init,
        )
    }

    /// A sense-threshold request.
    pub fn vsa(defect: &Defect, resistance: f64, op_point: &OperatingPoint) -> Self {
        SimRequest {
            defect: *defect,
            resistance,
            op_point: *op_point,
            task: SimTask::Vsa,
        }
    }

    /// A write-end-voltage request (the stress probes' primitive).
    pub fn write_end(
        defect: &Defect,
        resistance: f64,
        op_point: &OperatingPoint,
        high: bool,
    ) -> Self {
        SimRequest {
            defect: *defect,
            resistance,
            op_point: *op_point,
            task: SimTask::WriteEnd { high },
        }
    }

    /// The request running a detection condition's logic sequence: ops and
    /// initial level resolved for the defect's bit-line side. Its value is
    /// [`SimValue::Reads`], and its key differs from the [`SimRequest::run`]
    /// of the same sequence.
    pub fn detection(
        defect: &Defect,
        resistance: f64,
        op_point: &OperatingPoint,
        condition: &DetectionCondition,
    ) -> Self {
        let (seq, _) = condition.to_logic(defect.side());
        let vc_init = if condition.initial_level() {
            op_point.vdd
        } else {
            0.0
        };
        SimRequest {
            defect: *defect,
            resistance,
            op_point: *op_point,
            task: SimTask::Detection { seq, vc_init },
        }
    }

    /// The defect under test.
    pub fn defect(&self) -> &Defect {
        &self.defect
    }

    /// The defect resistance.
    pub fn resistance(&self) -> f64 {
        self.resistance
    }

    /// The operating point (stress combination).
    pub fn op_point(&self) -> &OperatingPoint {
        &self.op_point
    }

    /// The task payload.
    pub fn task(&self) -> &SimTask {
        &self.task
    }

    /// The stable 64-bit content key under a service's `context` key
    /// (which already folds in the column design and recovery policy).
    pub fn content_key(&self, context: u64) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_u64(context);
        self.defect.fingerprint_into(&mut fp);
        fp.write_f64(self.resistance);
        self.op_point.fingerprint_into(&mut fp);
        self.task.fingerprint_into(&mut fp);
        fp.finish()
    }
}

/// The value a request evaluates to.
#[derive(Debug, Clone, PartialEq)]
pub enum SimValue {
    /// Cell voltage after each reported operation ([`SimTask::Settle`]).
    Series(Vec<f64>),
    /// Per-cycle voltages and per-read logic values ([`SimTask::Run`]).
    Outcomes {
        /// Cell voltage at the end of every cycle.
        vc_ends: Vec<f64>,
        /// Logic value of each read operation, in order (`None` when the
        /// read produced no outcome).
        reads: Vec<Option<bool>>,
    },
    /// A single voltage ([`SimTask::Vsa`], [`SimTask::WriteEnd`]).
    Scalar(f64),
    /// Logic value of each read operation, in order
    /// ([`SimTask::Detection`]).
    Reads(Vec<bool>),
}

impl SimValue {
    /// Unwraps a [`SimValue::Series`].
    ///
    /// # Errors
    ///
    /// [`CoreError::BadRequest`] when the value holds a different shape.
    pub fn into_series(self) -> Result<Vec<f64>, CoreError> {
        match self {
            SimValue::Series(vcs) => Ok(vcs),
            other => Err(shape_mismatch("series", &other)),
        }
    }

    /// Unwraps a [`SimValue::Outcomes`] into `(vc_ends, reads)`.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadRequest`] when the value holds a different shape.
    pub fn into_outcomes(self) -> Result<(Vec<f64>, Vec<Option<bool>>), CoreError> {
        match self {
            SimValue::Outcomes { vc_ends, reads } => Ok((vc_ends, reads)),
            other => Err(shape_mismatch("outcomes", &other)),
        }
    }

    /// Unwraps a [`SimValue::Reads`].
    ///
    /// # Errors
    ///
    /// [`CoreError::BadRequest`] when the value holds a different shape.
    pub fn into_reads(self) -> Result<Vec<bool>, CoreError> {
        match self {
            SimValue::Reads(reads) => Ok(reads),
            other => Err(shape_mismatch("reads", &other)),
        }
    }

    /// Unwraps a [`SimValue::Scalar`].
    ///
    /// # Errors
    ///
    /// [`CoreError::BadRequest`] when the value holds a different shape.
    pub fn scalar(&self) -> Result<f64, CoreError> {
        match self {
            SimValue::Scalar(v) => Ok(*v),
            other => Err(shape_mismatch("scalar", other)),
        }
    }
}

/// Whether a detection request's value passes: every read returns the
/// condition's expected value.
fn reads_pass(
    value: SimValue,
    defect: &Defect,
    condition: &DetectionCondition,
) -> Result<bool, CoreError> {
    let (_, expected) = condition.to_logic(defect.side());
    Ok(value
        .into_reads()?
        .iter()
        .zip(&expected)
        .all(|(g, e)| g == e))
}

fn shape_mismatch(wanted: &str, got: &SimValue) -> CoreError {
    let shape = match got {
        SimValue::Series(_) => "series",
        SimValue::Outcomes { .. } => "outcomes",
        SimValue::Scalar(_) => "scalar",
        SimValue::Reads(_) => "reads",
    };
    CoreError::BadRequest(format!("expected a {wanted} value, evaluated to {shape}"))
}

/// One cache slot: a result being computed or a finished value with the
/// recovery stats its computation accrued (replayed on every hit so
/// cached campaigns reproduce their `PointStatus` accounting).
enum Slot {
    InFlight,
    Done {
        value: SimValue,
        stats: RecoveryStats,
    },
}

/// How a computation may start warm. None of it enters the content key: a
/// seed moves at most the last bits a solve converges to, and a hint only
/// which reads a `Vsa` search spends.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Warm<'a> {
    /// Converged trace of the same sequence under neighbouring conditions.
    pub seed: Option<&'a OpTrace>,
    /// Seed each read of a `Vsa` bisection from the previous read.
    pub probes: bool,
    /// A nearby `Vsa` the threshold search starts from
    /// ([`Analyzer::vsa_probed`]).
    pub vsa_hint: Option<f64>,
}

impl<'a> Warm<'a> {
    /// A warm start from a seed trace alone.
    pub fn seeded(seed: Option<&'a OpTrace>) -> Self {
        Warm {
            seed,
            ..Warm::default()
        }
    }
}

/// A prefetch: the request and the span its ask runs under.
type PrefetchJob = (SimRequest, Option<u64>);

/// The handle a search holds on its prefetch helper
/// ([`EvalService::with_prefetcher`]): the scope the helper runs in, and
/// its job and completion channels once it has started.
pub(crate) struct Prefetcher<'scope, 'env> {
    scope: &'scope std::thread::Scope<'scope, 'env>,
    service: &'env EvalService,
    helper: OnceCell<(mpsc::Sender<PrefetchJob>, mpsc::Receiver<()>)>,
}

impl Prefetcher<'_, '_> {
    /// The helper's channels, starting it on first use.
    fn channels(&self) -> &(mpsc::Sender<PrefetchJob>, mpsc::Receiver<()>) {
        self.helper.get_or_init(|| {
            let (jobs, inbox) = mpsc::channel::<PrefetchJob>();
            let (finished, done) = mpsc::channel();
            let service = self.service;
            self.scope.spawn(move || {
                for (prefetch, parent) in inbox {
                    let _span = dso_obs::span_child_of("eval.prefetch", parent);
                    dso_obs::counter!("eval.requests").incr();
                    let key = prefetch.content_key(service.context_key);
                    if service.lookup(key).is_none() {
                        // Only the cache tiers keep the outcome.
                        service.compute(key, &prefetch, Warm::default());
                    }
                    if finished.send(()).is_err() {
                        break;
                    }
                }
            });
            (jobs, done)
        })
    }
}

/// Everything one evaluation reports back to a campaign-layer caller.
pub(crate) struct TaskOutcome {
    /// The value, or the simulation failure.
    pub value: Result<SimValue, CoreError>,
    /// Recovery counters of the (possibly replayed) computation.
    pub stats: RecoveryStats,
    /// The run's converged trace for warm-start chaining — `None` on
    /// cache hits and for tasks without a single underlying transient.
    pub trace: Option<OpTrace>,
    /// `true` when the value was replayed from a cache tier (memory or
    /// disk) instead of computed.
    pub cached: bool,
    /// `true` when the replay came from the persistent store rather than
    /// the in-memory memo cache.
    pub from_disk: bool,
}

/// Point-in-time cache counters of an [`EvalService`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the in-memory cache.
    pub hits: u64,
    /// Requests answered from the persistent store's disk tier.
    pub disk_hits: u64,
    /// Requests that had to compute.
    pub misses: u64,
    /// Successful computations stored.
    pub inserts: u64,
    /// Requests that blocked on an identical in-flight computation.
    pub dedup_waits: u64,
    /// Requests that skipped the cache (armed fault plan or trace
    /// extraction).
    pub bypasses: u64,
    /// Evaluations that ended in a simulation failure. Failures are never
    /// cached, so a hot failing point recomputes on every revisit — this
    /// counter is the only place that cost shows up. A border search's
    /// prefetch that fails is not counted until the search asks it.
    pub failures_seen: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of cacheable requests answered from a cache tier — memory
    /// or disk — without computing (0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        let served = self.hits + self.disk_hits;
        let total = served + self.misses;
        if total == 0 {
            0.0
        } else {
            served as f64 / total as f64
        }
    }
}

/// The memoizing evaluation service — the only way any analysis layer
/// runs a transient.
///
/// The service owns an [`Analyzer`] (column design + recovery policy) and
/// a content-keyed result cache shared by every workload submitted to it:
/// plane campaigns, border bisections, stress probes, shmoo grids. Run a
/// border extraction after a plane campaign on the *same* service and the
/// grid-point re-probes are cache hits.
///
/// # Example
///
/// ```no_run
/// use dso_core::analysis::Analyzer;
/// use dso_core::eval::{EvalService, SimRequest};
/// use dso_defects::{BitLineSide, Defect};
/// use dso_dram::design::{ColumnDesign, OperatingPoint};
///
/// let service = EvalService::new(Analyzer::new(ColumnDesign::default()));
/// let defect = Defect::cell_open(BitLineSide::True);
/// let op = OperatingPoint::nominal();
/// let first = service.vsa(&defect, 1e5, &op)?;
/// let replay = service.vsa(&defect, 1e5, &op)?; // cache hit
/// assert_eq!(first, replay);
/// assert_eq!(service.cache_stats().hits, 1);
/// # Ok::<(), dso_core::CoreError>(())
/// ```
pub struct EvalService {
    analyzer: Analyzer,
    context_key: u64,
    cache: Mutex<HashMap<u64, Slot>>,
    store: Option<ResultStore>,
    done: Condvar,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    dedup_waits: AtomicU64,
    bypasses: AtomicU64,
    failures: AtomicU64,
}

impl std::fmt::Debug for EvalService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalService")
            .field("analyzer", &self.analyzer)
            .field("context_key", &self.context_key)
            .field("cache_stats", &self.cache_stats())
            .finish()
    }
}

impl EvalService {
    /// Creates a service around an analyzer. The context key — the hash
    /// prefix of every request key — is derived from the column design
    /// and recovery policy here, once.
    pub fn new(analyzer: Analyzer) -> Self {
        let context_key = EvalService::context_for(&analyzer);
        EvalService {
            analyzer,
            context_key,
            cache: Mutex::new(HashMap::new()),
            store: None,
            done: Condvar::new(),
            hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            dedup_waits: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        }
    }

    /// The context fingerprint a service built on `analyzer` uses: the
    /// hash of its column design, its recovery policy, the request schema
    /// (`REQUEST_SCHEMA`) and the solver's numerics revision
    /// ([`dso_spice::NUMERICS`]). This is the key a [`ResultStore`] must
    /// be opened with for its records to survive the stale-generation
    /// check, so a store written by a solver whose bits differ compacts
    /// away at open instead of replaying them.
    pub fn context_for(analyzer: &Analyzer) -> u64 {
        let mut fp = Fingerprint::new();
        analyzer.design().fingerprint_into(&mut fp);
        analyzer.recovery().fingerprint_into(&mut fp);
        fp.write_u64(REQUEST_SCHEMA);
        fp.write_u64(dso_spice::NUMERICS);
        fp.finish()
    }

    /// Creates a service with a persistent store attached as the disk
    /// cache tier. The store must have been opened with
    /// [`EvalService::context_for`] of the same analyzer; a mismatched
    /// context is rejected rather than silently serving another
    /// generation's bits.
    ///
    /// # Errors
    ///
    /// [`CoreError::Store`] on a context mismatch.
    pub fn with_store(analyzer: Analyzer, store: ResultStore) -> Result<Self, CoreError> {
        let mut service = EvalService::new(analyzer);
        if store.context() != service.context_key {
            return Err(CoreError::Store(format!(
                "store {} was opened for context {:#018x}, service is {:#018x}",
                store.path().display(),
                store.context(),
                service.context_key
            )));
        }
        service.store = Some(store);
        Ok(service)
    }

    /// Creates a service honoring the `DSO_STORE` environment variable:
    /// when set, the persistent store at that path is opened (and
    /// recovered) for the analyzer's context and attached as the disk
    /// tier. A store that cannot be opened degrades to an in-memory-only
    /// service with a warning on stderr — an unwritable cache must not
    /// stop a campaign.
    pub fn from_env(analyzer: Analyzer) -> Self {
        let mut service = EvalService::new(analyzer);
        if let Ok(path) = std::env::var("DSO_STORE") {
            if !path.is_empty() {
                match ResultStore::open(&path, service.context_key) {
                    Ok(store) => service.store = Some(store),
                    Err(e) => {
                        eprintln!("warning: DSO_STORE ignored, running without persistence: {e}")
                    }
                }
            }
        }
        service
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&ResultStore> {
        self.store.as_ref()
    }

    /// The analyzer (column design + recovery policy) behind the service.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// The current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            dedup_waits: self.dedup_waits.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            failures_seen: self.failures.load(Ordering::Relaxed),
            entries: self.cache_len(),
        }
    }

    /// Entries currently stored.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().expect("eval cache poisoned").len()
    }

    /// Evaluates one request through the cache.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures (never cached).
    pub fn eval(&self, request: &SimRequest) -> Result<SimValue, CoreError> {
        self.eval_seeded(request, None, Warm::default()).value
    }

    /// Evaluates a batch of requests through the configured worker pool,
    /// returning one result per request in submission order. Duplicate
    /// requests within the batch are deduplicated in flight: one computes,
    /// the rest replay its value.
    pub fn eval_batch(
        &self,
        requests: &[SimRequest],
        config: &CampaignConfig,
    ) -> Vec<Result<SimValue, CoreError>> {
        self.eval_batch_hinted(requests, None, config)
    }

    /// As [`EvalService::eval_batch`], starting every `Vsa` request that
    /// computes from `vsa_hint` ([`Warm::vsa_hint`]).
    pub(crate) fn eval_batch_hinted(
        &self,
        requests: &[SimRequest],
        vsa_hint: Option<f64>,
        config: &CampaignConfig,
    ) -> Vec<Result<SimValue, CoreError>> {
        let warm = Warm {
            vsa_hint,
            ..Warm::default()
        };
        exec::map_chunked(requests.len(), config, |range| {
            range
                .map(|i| self.eval_seeded(&requests[i], None, warm).value)
                .collect()
        })
    }

    /// The value the in-memory cache holds for `request`, if it is done:
    /// a hint source, not a request, so it counts nothing and never waits.
    pub(crate) fn memoized(&self, request: &SimRequest) -> Option<SimValue> {
        let key = request.content_key(self.context_key);
        match self.cache.lock().expect("eval cache poisoned").get(&key) {
            Some(Slot::Done { value, .. }) => Some(value.clone()),
            _ => None,
        }
    }

    /// Runs the request's transient fresh — skipping the cache in both
    /// directions (counted as a bypass) — and returns the full operation
    /// trace. The cache stores values only, so waveform extraction (the
    /// figure binaries' storage-node plots) must simulate.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures; [`CoreError::BadRequest`] for
    /// request kinds that carry no trace (`Vsa`, `WriteEnd`, `Detection`).
    pub fn trace_of(&self, request: &SimRequest) -> Result<OpTrace, CoreError> {
        self.bypasses.fetch_add(1, Ordering::Relaxed);
        dso_obs::counter!("eval.cache_bypass").incr();
        let (value, _, trace) = self.execute(request, None, Warm::default());
        value?;
        trace.ok_or_else(|| CoreError::BadRequest("request kind carries no trace".into()))
    }

    /// The full campaign-layer entry point: optional fault plan and warm
    /// start (seed trace, intra-bisection warm probes, `Vsa` hint).
    ///
    /// Requests with an armed fault plan bypass the cache — memory *and*
    /// disk — in both directions: a fault-injected result must neither be
    /// stored nor satisfied from a clean run's cache.
    pub(crate) fn eval_seeded(
        &self,
        request: &SimRequest,
        faults: Option<&FaultPlan>,
        warm: Warm<'_>,
    ) -> TaskOutcome {
        dso_obs::counter!("eval.requests").incr();
        if faults.is_some() {
            self.bypasses.fetch_add(1, Ordering::Relaxed);
            dso_obs::counter!("eval.cache_bypass").incr();
            let (value, stats, trace) = self.execute(request, faults, warm);
            return self.noted(TaskOutcome {
                value,
                stats,
                trace,
                cached: false,
                from_disk: false,
            });
        }
        let key = request.content_key(self.context_key);
        match self.lookup(key) {
            Some(hit) => hit,
            None => self.noted(self.compute(key, request, warm)),
        }
    }

    /// Runs `search` beside one prefetch helper: when `config` has more
    /// than one thread, the first prefetch [`EvalService::eval_prefetching`]
    /// hands the helper starts one scoped thread, which computes every
    /// later prefetch of the call too, one at a time, and is joined before
    /// this returns. A search whose asks all hit starts no thread. With
    /// one thread a prefetch could only run after the ask and save
    /// nothing, so `search` gets no helper.
    pub(crate) fn with_prefetcher<R>(
        &self,
        config: &CampaignConfig,
        search: impl FnOnce(Option<&Prefetcher<'_, '_>>) -> R,
    ) -> R {
        if config.threads <= 1 {
            return search(None);
        }
        std::thread::scope(|scope| {
            // The helper's inbox closes when `search` returns and the
            // handle drops: the helper drains and the scope joins it.
            search(Some(&Prefetcher {
                scope,
                service: self,
                helper: OnceCell::new(),
            }))
        })
    }

    /// Evaluates `request` through the cache tiers; when it misses both
    /// and a `helper` is given, also evaluates `prefetch`, the request the
    /// caller expects to ask next, on the helper while `request` computes
    /// on the calling thread, and waits for both. The prefetch's value
    /// lands in the memo (and store), so asking it next is a hit; its
    /// failure is not cached, returned or counted in
    /// [`CacheStats::failures_seen`], so it surfaces only if it is asked.
    /// A hit starts no prefetch. Without a helper this is
    /// [`EvalService::eval`].
    ///
    /// # Errors
    ///
    /// As [`EvalService::eval`], for `request` only.
    pub(crate) fn eval_prefetching(
        &self,
        request: &SimRequest,
        prefetch: &SimRequest,
        helper: Option<&Prefetcher<'_, '_>>,
    ) -> Result<SimValue, CoreError> {
        let Some(helper) = helper else {
            return self.eval(request);
        };
        dso_obs::counter!("eval.requests").incr();
        let key = request.content_key(self.context_key);
        if let Some(hit) = self.lookup(key) {
            return hit.value;
        }
        dso_obs::counter!("eval.prefetches").incr();
        let (jobs, done) = helper.channels();
        jobs.send((prefetch.clone(), dso_obs::current_span_id()))
            .expect("prefetch helper alive");
        let value = self
            .noted(self.compute(key, request, Warm::default()))
            .value;
        done.recv().expect("prefetch helper exited");
        value
    }

    /// Answers `key` from memory or disk, waiting out an identical
    /// in-flight computation. On a miss it marks `key` in flight and
    /// returns `None`: the caller must then [`EvalService::compute`] it.
    fn lookup(&self, key: u64) -> Option<TaskOutcome> {
        {
            let mut map = self.cache.lock().expect("eval cache poisoned");
            let mut waited = false;
            loop {
                match map.get(&key) {
                    Some(Slot::Done { value, stats }) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        dso_obs::counter!("eval.cache_hits").incr();
                        return Some(TaskOutcome {
                            value: Ok(value.clone()),
                            stats: *stats,
                            trace: None,
                            cached: true,
                            from_disk: false,
                        });
                    }
                    Some(Slot::InFlight) => {
                        if !waited {
                            waited = true;
                            self.dedup_waits.fetch_add(1, Ordering::Relaxed);
                            dso_obs::counter!("eval.dedup_waits", nondet).incr();
                        }
                        map = self.done.wait(map).expect("eval cache poisoned");
                    }
                    None => {
                        map.insert(key, Slot::InFlight);
                        break;
                    }
                }
            }
        }
        // Disk tier, checked outside the cache lock (store lookups do
        // their own synchronization and must not serialize the memo
        // cache). This request holds the in-flight marker, so duplicates
        // wait and then replay the promoted entry from memory.
        let found = self.store.as_ref()?.get(key)?;
        {
            let mut map = self.cache.lock().expect("eval cache poisoned");
            map.insert(
                key,
                Slot::Done {
                    value: found.value.clone(),
                    stats: found.stats,
                },
            );
        }
        self.done.notify_all();
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
        dso_obs::counter!("eval.disk_hits").incr();
        Some(TaskOutcome {
            value: Ok(found.value),
            stats: found.stats,
            trace: None,
            cached: true,
            from_disk: true,
        })
    }

    /// Answers `request` with `value`, read off the run of another request
    /// instead of simulated (the `w1` settle values a `w0` settle run
    /// already holds, [`Analyzer::w1_settle_in`]). A hit in either cache
    /// tier replays the stored value as [`EvalService::eval_seeded`] would;
    /// otherwise `value` is counted, memoized and persisted like a computed
    /// success, with zero recovery stats: its solver work belongs to the
    /// run it was read from.
    pub(crate) fn eval_derived(&self, request: &SimRequest, value: SimValue) -> TaskOutcome {
        dso_obs::counter!("eval.requests").incr();
        let key = request.content_key(self.context_key);
        if let Some(hit) = self.lookup(key) {
            return hit;
        }
        self.finish(key, Ok(value), RecoveryStats::default(), None)
    }

    /// Computes a request whose `key` [`EvalService::lookup`] marked in
    /// flight, and memoizes and persists a success. A failure is left to
    /// the caller to [`EvalService::noted`].
    fn compute(&self, key: u64, request: &SimRequest, warm: Warm<'_>) -> TaskOutcome {
        let (value, stats, trace) = self.execute(request, None, warm);
        self.finish(key, value, stats, trace)
    }

    /// Settles the in-flight `key` with the outcome of a miss: counts the
    /// miss, memoizes and persists a success, drops the marker of a
    /// failure.
    fn finish(
        &self,
        key: u64,
        value: Result<SimValue, CoreError>,
        stats: RecoveryStats,
        trace: Option<OpTrace>,
    ) -> TaskOutcome {
        self.misses.fetch_add(1, Ordering::Relaxed);
        dso_obs::counter!("eval.cache_misses").incr();
        {
            let mut map = self.cache.lock().expect("eval cache poisoned");
            match &value {
                Ok(v) => {
                    self.inserts.fetch_add(1, Ordering::Relaxed);
                    map.insert(
                        key,
                        Slot::Done {
                            value: v.clone(),
                            stats,
                        },
                    );
                }
                // Failures are never cached: remove the in-flight marker
                // so a retry (or a waiter) computes fresh.
                Err(_) => {
                    map.remove(&key);
                }
            }
        }
        self.done.notify_all();
        // Write-through: persist the computed success after releasing the
        // memo lock, so disk latency never blocks other workers.
        if let (Ok(v), Some(store)) = (&value, &self.store) {
            store.put(key, v, &stats);
        }
        TaskOutcome {
            value,
            stats,
            trace,
            cached: false,
            from_disk: false,
        }
    }

    /// Counts `outcome` in [`CacheStats::failures_seen`] if it failed: the
    /// outcome of an asked request.
    fn noted(&self, outcome: TaskOutcome) -> TaskOutcome {
        if outcome.value.is_err() {
            self.failures.fetch_add(1, Ordering::Relaxed);
            dso_obs::counter!("eval.failures_seen").incr();
        }
        outcome
    }

    /// Runs the request's transient(s) on the analyzer.
    fn execute(
        &self,
        request: &SimRequest,
        faults: Option<&FaultPlan>,
        warm: Warm<'_>,
    ) -> (Result<SimValue, CoreError>, RecoveryStats, Option<OpTrace>) {
        let mut stats = RecoveryStats::default();
        let SimRequest {
            defect,
            resistance,
            op_point,
            task,
        } = request;
        let outcome: Result<(SimValue, Option<OpTrace>), CoreError> = match task {
            SimTask::Settle { high, n_ops } => self
                .analyzer
                .settle_trace(
                    defect,
                    *resistance,
                    op_point,
                    *high,
                    *n_ops,
                    faults,
                    warm.seed,
                    &mut stats,
                )
                .map(|(vcs, trace)| (SimValue::Series(vcs), Some(trace))),
            SimTask::Run { seq, vc_init } => (|| {
                let engine = self
                    .analyzer
                    .engine_with(defect, *resistance, op_point, faults)?;
                let trace = engine.run_seeded(seq, *vc_init, warm.seed).map_err(|e| {
                    CoreError::at_point("sequence", *resistance, Some(*vc_init), e.into())
                })?;
                stats.merge(trace.recovery());
                let vc_ends = trace.vc_ends();
                let reads = trace.read_values();
                Ok((SimValue::Outcomes { vc_ends, reads }, Some(trace)))
            })(),
            SimTask::Detection { seq, vc_init } => (|| {
                let engine = self
                    .analyzer
                    .engine_with(defect, *resistance, op_point, faults)?;
                let observed = engine
                    .observe(seq, *vc_init, warm.seed.map(OpTrace::tran))
                    .map_err(|e| {
                        CoreError::at_point("sequence", *resistance, Some(*vc_init), e.into())
                    })?;
                stats.merge(observed.recovery());
                Ok((SimValue::Reads(observed.read_values()), None))
            })(),
            SimTask::Vsa => self
                .analyzer
                .vsa_probed(
                    defect,
                    *resistance,
                    op_point,
                    faults,
                    warm.probes,
                    warm.vsa_hint,
                    &mut stats,
                )
                .map(|v| (SimValue::Scalar(v), None)),
            SimTask::WriteEnd { high } => self
                .analyzer
                .write_end_voltage(defect, *resistance, op_point, *high, faults, &mut stats)
                .map(|v| (SimValue::Scalar(v), None)),
        };
        match outcome {
            Ok((value, trace)) => (Ok(value), stats, trace),
            Err(e) => (Err(e), stats, None),
        }
    }

    // ---- typed convenience front ends --------------------------------

    /// Settlement sequence: cell voltage after each of `n_ops` physical
    /// writes of `high` (see `Analyzer` settle semantics: `w0` starts from
    /// the settled 1-level).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn settle_sequence(
        &self,
        defect: &Defect,
        resistance: f64,
        op_point: &OperatingPoint,
        high: bool,
        n_ops: usize,
    ) -> Result<Vec<f64>, CoreError> {
        self.eval(&SimRequest::settle(
            defect, resistance, op_point, high, n_ops,
        ))?
        .into_series()
    }

    /// Read sequence: `(vc after each read, accessed-bit-line-sensed-high
    /// after each read)`.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures; [`CoreError::BadRequest`] when a
    /// read cycle produced no outcome.
    pub fn read_sequence(
        &self,
        defect: &Defect,
        resistance: f64,
        op_point: &OperatingPoint,
        vc_init: f64,
        n_ops: usize,
    ) -> Result<(Vec<f64>, Vec<bool>), CoreError> {
        if n_ops == 0 {
            return Err(CoreError::BadRequest("n_ops must be positive".into()));
        }
        let value = self.eval(&SimRequest::reads(
            defect, resistance, op_point, vc_init, n_ops,
        ))?;
        let (vc_ends, reads) = value.into_outcomes()?;
        let side = defect.side();
        let highs = reads
            .into_iter()
            .map(|logic| {
                logic
                    .map(|l| match side {
                        dso_dram::design::BitLineSide::True => l,
                        dso_dram::design::BitLineSide::Comp => !l,
                    })
                    .ok_or_else(|| CoreError::BadRequest("read cycle produced no outcome".into()))
            })
            .collect::<Result<Vec<bool>, CoreError>>()?;
        Ok((vc_ends, highs))
    }

    /// The sense-amplifier threshold `Vsa(R)`.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn vsa(
        &self,
        defect: &Defect,
        resistance: f64,
        op_point: &OperatingPoint,
    ) -> Result<f64, CoreError> {
        self.eval(&SimRequest::vsa(defect, resistance, op_point))?
            .scalar()
    }

    /// The mid-point voltage `Vmp`: the read threshold of the defect-free
    /// cell (defect site at its absent resistance).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn vmp(&self, defect: &Defect, op_point: &OperatingPoint) -> Result<f64, CoreError> {
        self.vsa(defect, defect.absent_resistance(), op_point)
    }

    /// The cell voltage at word-line closing of a single physical write.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn write_end_voltage(
        &self,
        defect: &Defect,
        resistance: f64,
        op_point: &OperatingPoint,
        high: bool,
    ) -> Result<f64, CoreError> {
        self.eval(&SimRequest::write_end(defect, resistance, op_point, high))?
            .scalar()
    }

    /// Applies a detection condition and reports whether the memory
    /// *passes* — every read returns its expected value.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn detection_passes(
        &self,
        defect: &Defect,
        resistance: f64,
        condition: &DetectionCondition,
        op_point: &OperatingPoint,
    ) -> Result<bool, CoreError> {
        let value = self.eval(&SimRequest::detection(
            defect, resistance, op_point, condition,
        ))?;
        reads_pass(value, defect, condition)
    }

    /// As [`EvalService::detection_passes`], prefetching the same condition
    /// at resistance `prefetch` ([`EvalService::eval_prefetching`]).
    pub(crate) fn detection_passes_prefetching(
        &self,
        defect: &Defect,
        resistance: f64,
        prefetch: f64,
        condition: &DetectionCondition,
        op_point: &OperatingPoint,
        helper: Option<&Prefetcher<'_, '_>>,
    ) -> Result<bool, CoreError> {
        let value = self.eval_prefetching(
            &SimRequest::detection(defect, resistance, op_point, condition),
            &SimRequest::detection(defect, prefetch, op_point, condition),
            helper,
        )?;
        reads_pass(value, defect, condition)
    }

    /// A single physical write, used by calibration layers that sample a
    /// one-operation map: the cell voltage after running `seq` from
    /// `vc_init`.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn end_voltage_of(
        &self,
        defect: &Defect,
        resistance: f64,
        op_point: &OperatingPoint,
        seq: &[Operation],
        vc_init: f64,
    ) -> Result<f64, CoreError> {
        let value = self.eval(&SimRequest::run(
            defect,
            resistance,
            op_point,
            seq.to_vec(),
            vc_init,
        ))?;
        let (vc_ends, _) = value.into_outcomes()?;
        vc_ends
            .last()
            .copied()
            .ok_or_else(|| CoreError::BadRequest("empty operation sequence".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::test_support::fast_design;
    use dso_defects::BitLineSide;

    fn service() -> EvalService {
        EvalService::new(Analyzer::new(fast_design()))
    }

    #[test]
    fn content_keys_distinguish_requests() {
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        let a = SimRequest::settle(&defect, 1e5, &op, false, 2);
        let b = SimRequest::settle(&defect, 1e5, &op, true, 2);
        let c = SimRequest::settle(&defect, 2e5, &op, false, 2);
        let d = SimRequest::vsa(&defect, 1e5, &op);
        let keys: Vec<u64> = [&a, &b, &c, &d].iter().map(|r| r.content_key(7)).collect();
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "requests {i} and {j} collide");
            }
        }
        // Same request, same key; different context, different key.
        assert_eq!(
            a.content_key(7),
            SimRequest::settle(&defect, 1e5, &op, false, 2).content_key(7)
        );
        assert_ne!(a.content_key(7), a.content_key(8));
    }

    #[test]
    fn run_keys_include_sequence_boundaries() {
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        let one = SimRequest::run(&defect, 1e5, &op, vec![Operation::W1], 0.0);
        let two = SimRequest::run(&defect, 1e5, &op, vec![Operation::W1, Operation::W1], 0.0);
        assert_ne!(one.content_key(0), two.content_key(0));
    }

    #[test]
    fn value_shape_mismatch_is_bad_request() {
        let v = SimValue::Scalar(1.0);
        assert!(v.clone().into_series().is_err());
        assert!(v.clone().into_outcomes().is_err());
        assert!(v.scalar().is_ok());
        assert!(SimValue::Series(vec![]).scalar().is_err());
    }

    #[test]
    fn repeat_requests_hit_the_cache_bit_identically() {
        let svc = service();
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        let cold = svc.vsa(&defect, 1e5, &op).unwrap();
        let stats = svc.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (0, 1, 1));
        let warm = svc.vsa(&defect, 1e5, &op).unwrap();
        assert_eq!(cold.to_bits(), warm.to_bits());
        let stats = svc.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn failed_requests_are_not_cached() {
        let svc = service();
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        // n_ops == 0 is rejected before any transient runs.
        assert!(svc.settle_sequence(&defect, 1e5, &op, true, 0).is_err());
        assert_eq!(svc.cache_len(), 0);
        // And a retry still computes (the in-flight marker was removed).
        assert!(svc.settle_sequence(&defect, 1e5, &op, true, 0).is_err());
        assert_eq!(svc.cache_stats().misses, 2);
    }

    #[test]
    fn fault_armed_requests_bypass_the_cache() {
        use dso_num::chaos::{FaultKind, FaultPlan};
        let svc = service();
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        let req = SimRequest::vsa(&defect, 1e5, &op);
        // Seed the cache with a clean value.
        svc.eval(&req).unwrap();
        let before = svc.cache_stats();
        // A fault-armed evaluation must not read the cached value.
        let plan = FaultPlan::always(FaultKind::NanResidual);
        let outcome = svc.eval_seeded(&req, Some(&plan), Warm::default());
        assert!(!outcome.cached);
        let after = svc.cache_stats();
        assert_eq!(after.hits, before.hits);
        assert_eq!(after.bypasses, before.bypasses + 1);
        assert_eq!(after.entries, before.entries, "bypass must not store");
    }

    #[test]
    fn prefetches_land_in_the_cache_and_their_failures_stay_silent() {
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        let write = |r: f64| SimRequest::write_end(&defect, r, &op, true);
        // `n_ops == 0` fails before any transient runs.
        let bad = SimRequest::settle(&defect, 1e5, &op, true, 0);
        let svc = service();
        let config = CampaignConfig::with_threads(2);
        // One helper serves every ask of the search.
        svc.with_prefetcher(&config, |helper| {
            assert!(helper.is_some());
            // A miss computes the prefetch beside it; asking it is a hit.
            let first = svc.eval_prefetching(&write(1e5), &write(2e5), helper);
            assert_eq!(first.unwrap(), svc.eval(&write(1e5)).unwrap());
            svc.eval(&write(2e5)).unwrap();
            let stats = svc.cache_stats();
            assert_eq!((stats.hits, stats.misses, stats.inserts), (2, 2, 2));
            // A hit starts no prefetch.
            svc.eval_prefetching(&write(1e5), &bad, helper).unwrap();
            assert_eq!(svc.cache_stats().misses, 2);
            // A failing prefetch is neither returned, cached nor counted,
            // and the ask waits for it ...
            svc.eval_prefetching(&write(3e5), &bad, helper).unwrap();
            let stats = svc.cache_stats();
            assert_eq!(
                (stats.misses, stats.failures_seen, stats.entries),
                (4, 0, 3)
            );
            // ... and asking for it returns its error unchanged.
            let asked = svc.eval_prefetching(&bad, &write(1e5), helper);
            assert_eq!(asked.unwrap_err(), svc.eval(&bad).unwrap_err());
            assert_eq!(svc.cache_stats().failures_seen, 2);
        });
    }

    #[test]
    fn one_thread_prefetches_nothing() {
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        let write = |r: f64| SimRequest::write_end(&defect, r, &op, true);
        let svc = service();
        let config = CampaignConfig::with_threads(1);
        svc.with_prefetcher(&config, |helper| {
            assert!(helper.is_none());
            svc.eval_prefetching(&write(1e5), &write(2e5), helper)
                .unwrap();
        });
        let stats = svc.cache_stats();
        assert_eq!((stats.misses, stats.entries), (1, 1));
    }

    #[test]
    fn detection_runs_have_their_own_kind_and_key() {
        let svc = service();
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        let condition = DetectionCondition::default_for(&defect, 2);
        let (seq, expected) = condition.to_logic(defect.side());
        let vc_init = if condition.initial_level() {
            op.vdd
        } else {
            0.0
        };
        for r in [1e3, 2.5e6] {
            let detection = SimRequest::detection(&defect, r, &op, &condition);
            let run = SimRequest::run(&defect, r, &op, seq.clone(), vc_init);
            assert_ne!(detection.content_key(7), run.content_key(7));
            // The detection value holds the full run's read outcomes ...
            let reads = svc.eval(&detection).unwrap().into_reads().unwrap();
            let (vc_ends, full_reads) = svc.eval(&run).unwrap().into_outcomes().unwrap();
            assert_eq!(
                reads.iter().map(|&v| Some(v)).collect::<Vec<_>>(),
                full_reads
            );
            assert_eq!(
                svc.detection_passes(&defect, r, &condition, &op).unwrap(),
                reads == expected
            );
            // ... and `end_voltage_of` still reads the full cycle's end.
            let end = svc.end_voltage_of(&defect, r, &op, &seq, vc_init).unwrap();
            let engine = svc.analyzer().engine_with(&defect, r, &op, None).unwrap();
            let fresh = engine.run(&seq, vc_init).unwrap().vc_ends();
            assert_eq!(end.to_bits(), fresh.last().unwrap().to_bits());
            assert_eq!(end.to_bits(), vc_ends.last().unwrap().to_bits());
        }
        // A detection value has no trace and no `vc_end`.
        let detection = SimRequest::detection(&defect, 1e3, &op, &condition);
        assert!(svc.trace_of(&detection).is_err());
        assert!(svc.eval(&detection).unwrap().into_outcomes().is_err());
    }

    #[test]
    fn detection_passes_matches_direct_run() {
        let svc = service();
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        let condition = DetectionCondition::default_for(&defect, 1);
        // Healthy resistance passes; a severe open fails.
        assert!(svc.detection_passes(&defect, 1.0, &condition, &op).unwrap());
        assert!(!svc.detection_passes(&defect, 5e7, &condition, &op).unwrap());
    }
}
