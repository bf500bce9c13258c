//! Deterministic parallel campaign execution.
//!
//! Every result plane is an embarrassingly parallel grid of independent
//! sweep points, so campaigns fan the grid out across a dependency-free
//! worker pool built on [`std::thread::scope`] (no external crates — the
//! workspace must stay offline-buildable). Three properties are load-
//! bearing:
//!
//! * **Bit-identical determinism.** The grid is split into *chunks* whose
//!   boundaries depend only on the grid size and the configured chunk size
//!   — never on the thread count or on scheduling. Workers pull chunks
//!   from an atomic queue and write each chunk's results into its own
//!   pre-indexed slot; the caller reassembles them in chunk order. Any
//!   thread count therefore produces the same bytes as `threads = 1`.
//!   The chunk size does move bits (it cuts the warm-start chains), so it
//!   is set in code ([`CampaignConfig::with_chunk`]), never from the
//!   environment: `DSO_THREADS` is the only environment knob here.
//! * **Per-chunk state.** Warm-start continuation (seeding a point's
//!   Newton iterations from its chunk predecessor) lives entirely inside a
//!   chunk, so it is part of the deterministic chunk computation, not of
//!   the scheduling.
//! * **Index-keyed fault injection.** `CampaignFaults` plans are resolved
//!   by sweep-point index before any solve runs, so chaos ordinals fire
//!   identically regardless of which worker executes the point.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Default number of sweep points per work chunk.
///
/// The chunk size trades warm-start hits (larger chunks → longer seed
/// chains) against load balancing (more chunks → finer scheduling). It is
/// part of the determinism contract: runs with different chunk sizes may
/// legitimately differ in the last floating-point bits (different seed
/// chains), runs with different *thread counts* never do.
pub const DEFAULT_CHUNK: usize = 4;

/// Grids of at most this many points get coarsened chunks (see
/// [`effective_chunk`]).
pub const SMALL_GRID: usize = 32;

/// The chunk size actually used for a grid of `n` points: the configured
/// `chunk`, coarsened on small grids so the grid splits into at most four
/// chunks.
///
/// Small sweeps (a 30-point scaling probe, a handful of border refinement
/// points) lose more to scheduling than they gain from load balancing:
/// with the default chunk of 4, a 30-point grid becomes 8 chunks, waking
/// up to 8 workers whose per-thread cost (spawn, queue contention, cache
/// cold-start) exceeds the solve time — and each extra chunk boundary
/// also cuts a warm-start chain. Capping small grids at 4 chunks bounds
/// the worker count *and* lengthens the chains.
///
/// Determinism is preserved: the result depends only on `n` and `chunk`,
/// never on the thread count, so the chunk decomposition — and with it
/// every warm-start chain — is still bit-identical across thread counts.
/// The configured chunk acts as a floor, never a ceiling: asking for
/// whole-grid chunks (`chunk >= n`) still yields one chunk.
pub fn effective_chunk(n: usize, chunk: usize) -> usize {
    let chunk = chunk.max(1);
    if n <= SMALL_GRID {
        chunk.max(n.div_ceil(4))
    } else {
        chunk
    }
}

/// Execution policy for sweep campaigns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Worker threads. `1` runs inline on the calling thread.
    pub threads: usize,
    /// Sweep points per chunk (clamped to at least 1).
    pub chunk: usize,
    /// Seed each point's transients from its chunk predecessor's converged
    /// traces.
    pub warm_start: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig::from_env()
    }
}

impl CampaignConfig {
    /// Single-threaded execution (still warm-started within chunks).
    pub fn serial() -> Self {
        CampaignConfig {
            threads: 1,
            chunk: DEFAULT_CHUNK,
            warm_start: true,
        }
    }

    /// Execution with `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        CampaignConfig {
            threads: threads.max(1),
            ..CampaignConfig::serial()
        }
    }

    /// Reads the thread count from the `DSO_THREADS` environment variable
    /// (falling back to [`std::thread::available_parallelism`]); the chunk
    /// size is [`DEFAULT_CHUNK`].
    ///
    /// Invalid or zero values never panic and never silently misconfigure
    /// the campaign: the offending variable falls back to its default and a
    /// single warning is printed to stderr (once per process, not once per
    /// campaign) — see [`crate::env`].
    pub fn from_env() -> Self {
        let threads = crate::env::positive_usize("DSO_THREADS", "available parallelism")
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            });
        CampaignConfig::with_threads(threads)
    }

    /// Sets the chunk size (clamped to at least 1).
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Enables or disables warm-start continuation.
    pub fn with_warm_start(mut self, enabled: bool) -> Self {
        self.warm_start = enabled;
        self
    }

    /// Former batched-solver lane width. Every campaign now runs the
    /// scalar solver, so this returns `self` unchanged.
    #[deprecated(note = "the batched solver was removed; this has no effect")]
    pub fn with_lanes(self, _lanes: usize) -> Self {
        self
    }
}

/// `RecoveryStats`-style tally of campaign execution performance: how many
/// transients were warm-started and how much Newton work the campaign
/// spent. Aggregated across every sweep point of a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignPerfStats {
    /// Sweep points executed (including failed ones).
    pub points: usize,
    /// Transient runs seeded from a chunk predecessor's trace.
    pub warm_hits: usize,
    /// Seedable transient runs executed cold (chunk heads, post-failure
    /// restarts, warm start disabled).
    pub warm_misses: usize,
    /// Total Newton iterations across all successful solves.
    pub newton_iters: usize,
    /// Total Newton solves attempted.
    pub solve_attempts: usize,
    /// Simulation requests answered from an [`crate::eval::EvalService`]
    /// cache tier — memory or disk — (values and recovery accounting
    /// replayed, no solve run).
    pub cache_hits: usize,
    /// The subset of `cache_hits` served from the persistent store's disk
    /// tier (a resumed campaign replaying a previous run's points).
    pub disk_hits: usize,
    /// Simulation requests the evaluation service had to compute.
    pub cache_misses: usize,
    /// Sweep points that ended in a simulation failure. Failures are
    /// never cached, so these points pay full compute on every run.
    pub failures: usize,
    /// Newton iterations that assembled and refactored a fresh Jacobian.
    pub lu_refactors: usize,
    /// Newton iterations that reused a previous LU factorization
    /// (back-substitution only — the modified-Newton fast path).
    pub lu_reuses: usize,
    /// Device model evaluations skipped by the SPICE3-style bypass.
    pub bypass_hits: usize,
    /// Device model evaluations performed.
    pub bypass_misses: usize,
    /// Healthy-reference request grids a cross-design sweep answered from
    /// another design's results instead of recomputing (configs that
    /// expand to the same electrical plan share one evaluation context).
    /// Always 0 for single-design campaigns.
    pub cross_design_dedup: usize,
}

impl CampaignPerfStats {
    /// Publishes this tally into the metrics registry (`campaign.*`
    /// counters), so ad-hoc perf stats and the observability layer share
    /// one reporting path. Called once per campaign with the aggregated
    /// tally; a no-op while metrics are disabled.
    pub fn record_to_metrics(&self) {
        dso_obs::counter!("campaign.points").add(self.points as u64);
        dso_obs::counter!("campaign.warm_hits").add(self.warm_hits as u64);
        dso_obs::counter!("campaign.warm_misses").add(self.warm_misses as u64);
        dso_obs::counter!("campaign.newton_iters").add(self.newton_iters as u64);
        dso_obs::counter!("campaign.solve_attempts").add(self.solve_attempts as u64);
        dso_obs::counter!("campaign.cache_hits").add(self.cache_hits as u64);
        dso_obs::counter!("campaign.disk_hits").add(self.disk_hits as u64);
        dso_obs::counter!("campaign.cache_misses").add(self.cache_misses as u64);
        dso_obs::counter!("campaign.failures").add(self.failures as u64);
        dso_obs::counter!("campaign.lu_refactors").add(self.lu_refactors as u64);
        dso_obs::counter!("campaign.lu_reuses").add(self.lu_reuses as u64);
        dso_obs::counter!("campaign.bypass_hits").add(self.bypass_hits as u64);
        dso_obs::counter!("campaign.bypass_misses").add(self.bypass_misses as u64);
        dso_obs::counter!("campaign.cross_design_dedup").add(self.cross_design_dedup as u64);
    }

    /// Accumulates another tally into this one.
    pub fn merge(&mut self, other: &CampaignPerfStats) {
        self.points += other.points;
        self.warm_hits += other.warm_hits;
        self.warm_misses += other.warm_misses;
        self.newton_iters += other.newton_iters;
        self.solve_attempts += other.solve_attempts;
        self.cache_hits += other.cache_hits;
        self.disk_hits += other.disk_hits;
        self.cache_misses += other.cache_misses;
        self.failures += other.failures;
        self.lu_refactors += other.lu_refactors;
        self.lu_reuses += other.lu_reuses;
        self.bypass_hits += other.bypass_hits;
        self.bypass_misses += other.bypass_misses;
        self.cross_design_dedup += other.cross_design_dedup;
    }

    /// Fraction of seedable transients that ran warm (0 when none ran).
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.warm_hits + self.warm_misses;
        if total == 0 {
            0.0
        } else {
            self.warm_hits as f64 / total as f64
        }
    }

    /// Fraction of simulation requests answered from a cache tier
    /// (0 when the campaign issued none).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of simulation requests served from the persistent store's
    /// disk tier (0 when the campaign issued none) — the resume yield of
    /// a restarted campaign.
    pub fn disk_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.disk_hits as f64 / total as f64
        }
    }

    /// Fraction of Newton iterations that reused the previous LU
    /// factorization instead of refactoring (0 when none ran).
    pub fn lu_reuse_rate(&self) -> f64 {
        let total = self.lu_refactors + self.lu_reuses;
        if total == 0 {
            0.0
        } else {
            self.lu_reuses as f64 / total as f64
        }
    }

    /// Fraction of nonlinear device evaluations skipped by the bypass
    /// (0 when none ran).
    pub fn bypass_hit_rate(&self) -> f64 {
        let total = self.bypass_hits + self.bypass_misses;
        if total == 0 {
            0.0
        } else {
            self.bypass_hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for CampaignPerfStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} point(s), warm {}/{} ({:.0}%), cached {}/{} ({:.0}%)",
            self.points,
            self.warm_hits,
            self.warm_hits + self.warm_misses,
            100.0 * self.warm_hit_rate(),
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            100.0 * self.cache_hit_rate(),
        )?;
        if self.disk_hits > 0 {
            write!(f, " [{} from disk]", self.disk_hits)?;
        }
        write!(
            f,
            ", {} Newton iteration(s) over {} solve(s)",
            self.newton_iters, self.solve_attempts
        )?;
        if self.lu_reuses > 0 {
            write!(f, ", LU reuse {:.0}%", 100.0 * self.lu_reuse_rate())?;
        }
        if self.bypass_hits > 0 {
            write!(f, ", bypass {:.0}%", 100.0 * self.bypass_hit_rate())?;
        }
        if self.cross_design_dedup > 0 {
            write!(f, ", {} cross-design reuse(s)", self.cross_design_dedup)?;
        }
        if self.failures > 0 {
            write!(f, ", {} failure(s)", self.failures)?;
        }
        Ok(())
    }
}

/// Chunk-boundary progress handed to an [`ExecHooks`] callback: how many
/// chunks of the deterministic decomposition have completed so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkProgress {
    /// Chunks whose results have landed in their slots.
    pub completed: usize,
    /// Total chunks in the decomposition.
    pub total: usize,
}

/// Cooperative chunk-boundary hooks for [`map_chunked_cancellable`].
///
/// The service daemon uses these for two production semantics that the
/// plain campaign path never needs:
///
/// * **Preemption** — between chunks of a bulk campaign, the hook drains
///   pending interactive jobs, so short queries overtake long campaigns at
///   chunk granularity without a second worker pool.
/// * **Cancellation** — returning `false` aborts the remaining chunks
///   (deadline expiry, explicit cancel, client gone), freeing the workers
///   immediately; the in-flight chunk still completes, keeping the
///   executed prefix deterministic and cache/store-consistent.
///
/// The hook is called on executor worker threads: before each chunk
/// pickup and after the final chunk, always with the current
/// [`ChunkProgress`]. It must never affect the chunk decomposition or the
/// per-chunk computation — results of the chunks that do run stay
/// bit-identical to an unhooked run.
#[derive(Clone, Default)]
pub struct ExecHooks {
    between_chunks: Option<Arc<dyn Fn(ChunkProgress) -> bool + Send + Sync>>,
}

impl ExecHooks {
    /// Hooks that call `f` at every chunk boundary; `f` returns `false`
    /// to abort the remaining chunks.
    pub fn between_chunks(f: impl Fn(ChunkProgress) -> bool + Send + Sync + 'static) -> Self {
        ExecHooks {
            between_chunks: Some(Arc::new(f)),
        }
    }

    /// Invokes the boundary hook (`true` = keep going). No-op hooks
    /// always continue.
    pub fn observe(&self, progress: ChunkProgress) -> bool {
        match &self.between_chunks {
            Some(f) => f(progress),
            None => true,
        }
    }

    /// `true` when no callback is installed.
    pub fn is_empty(&self) -> bool {
        self.between_chunks.is_none()
    }
}

impl std::fmt::Debug for ExecHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecHooks")
            .field("between_chunks", &self.between_chunks.is_some())
            .finish()
    }
}

/// The deterministic chunk decomposition of a grid of `n` points: contiguous
/// ranges of `chunk` points (the last chunk may be shorter). Depends only on
/// `n` and `chunk`, never on the thread count.
pub fn chunk_ranges(n: usize, chunk: usize) -> Vec<Range<usize>> {
    let chunk = chunk.max(1);
    (0..n.div_ceil(chunk))
        .map(|c| c * chunk..((c + 1) * chunk).min(n))
        .collect()
}

/// Maps `f` over the deterministic chunk decomposition of `0..n`, fanning
/// chunks out across `config.threads` workers, and returns the per-point
/// results flattened in index order.
///
/// `f` receives a chunk's index range and must return one result per index.
/// Results land in pre-indexed slots keyed by chunk number, so the output
/// is bit-identical for every thread count and every scheduling order. A
/// panic in `f` propagates to the caller.
///
/// # Panics
///
/// Panics if `f` returns a different number of results than the chunk has
/// points (and propagates panics from `f` itself).
pub fn map_chunked<T, F>(n: usize, config: &CampaignConfig, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    match map_chunked_cancellable(n, config, &ExecHooks::default(), f) {
        Ok(out) => out,
        Err(_) => unreachable!("empty hooks never abort"),
    }
}

/// [`map_chunked`] with cooperative chunk-boundary [`ExecHooks`]: the hook
/// runs on worker threads before each chunk pickup and after the final
/// chunk, and may abort the remaining chunks by returning `false`.
///
/// Returns `Err(progress)` when the run was aborted (some chunks never
/// executed), carrying how many chunks had completed — by then every
/// in-flight chunk has finished, so the evaluation cache and persistent
/// store hold a deterministic prefix of the campaign. Returns
/// `Ok(results)` for a completed run, bit-identical to [`map_chunked`]
/// for every thread count: hooks never change the chunk decomposition or
/// the per-chunk computation.
pub fn map_chunked_cancellable<T, F>(
    n: usize,
    config: &CampaignConfig,
    hooks: &ExecHooks,
    f: F,
) -> Result<Vec<T>, ChunkProgress>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    let ranges = chunk_ranges(n, effective_chunk(n, config.chunk));
    let workers = config.threads.max(1).min(ranges.len().max(1));
    let total = ranges.len();
    dso_obs::counter!("exec.chunks").add(ranges.len() as u64);
    dso_obs::gauge!("exec.workers", nondet).set(workers as f64);
    // Chunk-duration / queue-wait edges in milliseconds; wall-clock values
    // are inherently run-dependent, hence `nondet`.
    let chunk_ms = dso_obs::histogram!("exec.chunk_ms", &[1.0, 10.0, 100.0, 1e3, 1e4, 1e5], nondet);
    let queue_wait_ms = dso_obs::histogram!(
        "exec.chunk_queue_wait_ms",
        &[1.0, 10.0, 100.0, 1e3, 1e4, 1e5],
        nondet
    );
    let epoch = std::time::Instant::now();
    let run_chunk = |range: Range<usize>| -> Vec<T> {
        let len = range.len();
        let started = std::time::Instant::now();
        let out = f(range);
        chunk_ms.observe(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(out.len(), len, "chunk worker returned wrong result count");
        out
    };
    if workers <= 1 {
        let mut out = Vec::with_capacity(n);
        for (completed, range) in ranges.into_iter().enumerate() {
            if !hooks.observe(ChunkProgress { completed, total }) {
                return Err(ChunkProgress { completed, total });
            }
            out.extend(run_chunk(range));
        }
        let done = ChunkProgress {
            completed: total,
            total,
        };
        if !hooks.observe(done) {
            return Err(done);
        }
        return Ok(out);
    }
    // Spans opened on worker threads re-parent to the caller's span
    // explicitly — the thread-local span stack does not cross threads.
    let parent_span = dso_obs::current_span_id();
    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Vec<T>>>> = ranges.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut busy = std::time::Duration::ZERO;
                loop {
                    if aborted.load(Ordering::Relaxed) {
                        break;
                    }
                    if !hooks.observe(ChunkProgress {
                        completed: completed.load(Ordering::Relaxed),
                        total,
                    }) {
                        aborted.store(true, Ordering::Relaxed);
                        break;
                    }
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    let Some(range) = ranges.get(c) else { break };
                    // Time from campaign start to pickup = how long the
                    // chunk sat in the queue behind earlier chunks.
                    queue_wait_ms.observe(epoch.elapsed().as_secs_f64() * 1e3);
                    let span = dso_obs::span_child_of("exec.chunk", parent_span);
                    span.note("chunk", c as f64);
                    let t0 = std::time::Instant::now();
                    let out = run_chunk(range.clone());
                    busy += t0.elapsed();
                    drop(span);
                    *slots[c].lock().expect("chunk slot poisoned") = Some(out);
                    completed.fetch_add(1, Ordering::Relaxed);
                }
                // Per-thread utilization: busy fraction of the campaign's
                // wall clock, one gauge sample per worker (max survives).
                let wall = epoch.elapsed().as_secs_f64();
                if wall > 0.0 {
                    dso_obs::gauge!("exec.worker_utilization", nondet)
                        .set(busy.as_secs_f64() / wall);
                }
            });
        }
    });
    if aborted.into_inner() {
        return Err(ChunkProgress {
            completed: completed.into_inner(),
            total,
        });
    }
    // Mirror the serial path's final observation so hooks always see
    // `completed == total` once (progress streaming relies on it).
    let done = ChunkProgress {
        completed: total,
        total,
    };
    if !hooks.observe(done) {
        return Err(done);
    }
    Ok(slots
        .into_iter()
        .flat_map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("all chunks completed")
        })
        .collect())
}

/// Runs the same chunk decomposition as [`map_chunked`] but executes the
/// chunks serially in the caller-supplied completion `order` — an
/// interleaving smoke test: any permutation must reassemble to the same
/// output as the in-order run, because slots are keyed by chunk index.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..chunk_count`.
pub fn map_chunked_in_order<T, F>(
    n: usize,
    config: &CampaignConfig,
    order: &[usize],
    f: F,
) -> Vec<T>
where
    F: Fn(Range<usize>) -> Vec<T>,
{
    let ranges = chunk_ranges(n, effective_chunk(n, config.chunk));
    assert_eq!(order.len(), ranges.len(), "order must cover every chunk");
    let mut slots: Vec<Option<Vec<T>>> = ranges.iter().map(|_| None).collect();
    for &c in order {
        let range = ranges[c].clone();
        let len = range.len();
        let out = f(range);
        assert_eq!(out.len(), len, "chunk worker returned wrong result count");
        assert!(slots[c].is_none(), "order visits chunk {c} twice");
        slots[c] = Some(out);
    }
    slots
        .into_iter()
        .flat_map(|slot| slot.expect("order covers every chunk"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_grid_exactly() {
        assert_eq!(chunk_ranges(0, 4), Vec::<Range<usize>>::new());
        assert_eq!(chunk_ranges(3, 4), vec![0..3]);
        assert_eq!(chunk_ranges(8, 4), vec![0..4, 4..8]);
        assert_eq!(chunk_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        // Chunk size 0 is clamped to 1.
        assert_eq!(chunk_ranges(2, 0), vec![0..1, 1..2]);
    }

    #[test]
    fn map_chunked_matches_serial_for_all_thread_counts() {
        let expected: Vec<usize> = (0..23).map(|i| i * i).collect();
        for threads in [1, 2, 4, 8] {
            let cfg = CampaignConfig::with_threads(threads).with_chunk(3);
            let got = map_chunked(23, &cfg, |range| range.map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn map_chunked_chunk_state_is_thread_invariant() {
        // A per-chunk accumulator (modelling a warm-start chain) must
        // produce identical results at any thread count, because chunk
        // boundaries are fixed.
        let run = |threads: usize| {
            let cfg = CampaignConfig::with_threads(threads).with_chunk(4);
            map_chunked(14, &cfg, |range| {
                let mut carry = 0usize;
                range
                    .map(|i| {
                        carry = carry * 10 + i;
                        carry
                    })
                    .collect::<Vec<_>>()
            })
        };
        let serial = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn shuffled_chunk_order_reassembles_identically() {
        let cfg = CampaignConfig::serial().with_chunk(3);
        let f = |range: Range<usize>| range.map(|i| 100 + i).collect::<Vec<_>>();
        let in_order = map_chunked_in_order(10, &cfg, &[0, 1, 2, 3], f);
        let shuffled = map_chunked_in_order(10, &cfg, &[2, 0, 3, 1], f);
        assert_eq!(in_order, shuffled);
        assert_eq!(in_order, (0..10).map(|i| 100 + i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_grid_is_fine() {
        let cfg = CampaignConfig::with_threads(4);
        let got: Vec<usize> = map_chunked(0, &cfg, |range| range.collect());
        assert!(got.is_empty());
    }

    #[test]
    fn config_builders() {
        let cfg = CampaignConfig::with_threads(0);
        assert_eq!(cfg.threads, 1);
        let cfg = CampaignConfig::serial()
            .with_chunk(0)
            .with_warm_start(false);
        assert_eq!(cfg.chunk, 1);
        assert!(!cfg.warm_start);
        #[allow(deprecated)]
        let same = cfg.clone().with_lanes(8);
        assert_eq!(same, cfg);
        let env_cfg = CampaignConfig::from_env();
        assert!(env_cfg.threads >= 1);
    }

    #[test]
    fn perf_stats_merge_and_rate() {
        let mut a = CampaignPerfStats {
            points: 2,
            warm_hits: 3,
            warm_misses: 1,
            newton_iters: 100,
            solve_attempts: 40,
            cache_hits: 2,
            disk_hits: 1,
            cache_misses: 5,
            failures: 1,
            lu_refactors: 30,
            lu_reuses: 50,
            bypass_hits: 200,
            bypass_misses: 100,
            cross_design_dedup: 2,
        };
        let b = CampaignPerfStats {
            points: 1,
            warm_hits: 1,
            warm_misses: 3,
            newton_iters: 50,
            solve_attempts: 20,
            cache_hits: 1,
            disk_hits: 1,
            cache_misses: 4,
            failures: 0,
            lu_refactors: 10,
            lu_reuses: 10,
            bypass_hits: 40,
            bypass_misses: 60,
            cross_design_dedup: 1,
        };
        a.merge(&b);
        assert_eq!(a.points, 3);
        assert_eq!(a.warm_hits, 4);
        assert_eq!(a.warm_misses, 4);
        assert_eq!(a.newton_iters, 150);
        assert_eq!(a.solve_attempts, 60);
        assert_eq!(a.cache_hits, 3);
        assert_eq!(a.disk_hits, 2);
        assert_eq!(a.cache_misses, 9);
        assert_eq!(a.failures, 1);
        assert_eq!(a.lu_refactors, 40);
        assert_eq!(a.lu_reuses, 60);
        assert_eq!(a.bypass_hits, 240);
        assert_eq!(a.bypass_misses, 160);
        assert_eq!(a.cross_design_dedup, 3);
        assert!((a.warm_hit_rate() - 0.5).abs() < 1e-12);
        assert!((a.cache_hit_rate() - 0.25).abs() < 1e-12);
        assert!((a.disk_hit_rate() - 2.0 / 12.0).abs() < 1e-12);
        assert!((a.lu_reuse_rate() - 0.6).abs() < 1e-12);
        assert!((a.bypass_hit_rate() - 0.6).abs() < 1e-12);
        assert_eq!(CampaignPerfStats::default().warm_hit_rate(), 0.0);
        assert_eq!(CampaignPerfStats::default().cache_hit_rate(), 0.0);
        assert_eq!(CampaignPerfStats::default().disk_hit_rate(), 0.0);
        assert_eq!(CampaignPerfStats::default().lu_reuse_rate(), 0.0);
        assert_eq!(CampaignPerfStats::default().bypass_hit_rate(), 0.0);
        let text = a.to_string();
        assert!(text.contains("3 point(s)"), "{text}");
        assert!(text.contains("warm 4/8"), "{text}");
        assert!(text.contains("cached 3/12"), "{text}");
        assert!(text.contains("[2 from disk]"), "{text}");
        assert!(text.contains("1 failure(s)"), "{text}");
        assert!(text.contains("LU reuse 60%"), "{text}");
        assert!(text.contains("bypass 60%"), "{text}");
        assert!(text.contains("3 cross-design reuse(s)"), "{text}");
        // Zero disk hits, reuse, bypass, dedup, and failures stay out of
        // the display.
        let quiet = CampaignPerfStats::default().to_string();
        assert!(!quiet.contains("from disk"), "{quiet}");
        assert!(!quiet.contains("failure"), "{quiet}");
        assert!(!quiet.contains("LU reuse"), "{quiet}");
        assert!(!quiet.contains("bypass"), "{quiet}");
        assert!(!quiet.contains("cross-design"), "{quiet}");
    }

    #[test]
    fn effective_chunk_caps_small_grids_at_four_chunks() {
        // A 30-point grid with the default chunk of 4 would be 8 chunks;
        // the adaptive policy coarsens it to 4 chunks of ≤ 8.
        assert_eq!(effective_chunk(30, 4), 8);
        assert_eq!(chunk_ranges(30, effective_chunk(30, 4)).len(), 4);
        // The configured chunk is a floor, never a ceiling.
        assert_eq!(effective_chunk(8, 8), 8); // whole-grid chunk stays whole
        assert_eq!(effective_chunk(30, 16), 16);
        // Large grids keep their configured granularity for balancing.
        assert_eq!(effective_chunk(33, 4), 4);
        assert_eq!(effective_chunk(1000, 4), 4);
        // Degenerate inputs.
        assert_eq!(effective_chunk(0, 4), 4);
        assert_eq!(effective_chunk(1, 0), 1);
    }

    #[test]
    fn effective_chunk_is_thread_count_free() {
        // The decomposition the mappers use depends only on (n, chunk):
        // identical output at every thread count even on small grids.
        let expected: Vec<usize> = (0..30).map(|i| i * 7).collect();
        for threads in [1, 2, 4, 8] {
            let cfg = CampaignConfig::with_threads(threads).with_chunk(4);
            let got = map_chunked(30, &cfg, |range| range.map(|i| i * 7).collect::<Vec<_>>());
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn hooks_always_see_the_final_chunk_count() {
        // Progress streaming (the service daemon's chunk frames) relies on
        // every completed run observing `completed == total` at least once
        // — in the serial AND the parallel path — and on hooks never
        // changing the output.
        let expected: Vec<usize> = (0..40).map(|i| i + 1).collect();
        for threads in [1, 4] {
            let cfg = CampaignConfig::with_threads(threads).with_chunk(4);
            let total = chunk_ranges(40, effective_chunk(40, 4)).len();
            let seen: Arc<Mutex<Vec<ChunkProgress>>> = Arc::new(Mutex::new(Vec::new()));
            let hooks = {
                let seen = Arc::clone(&seen);
                ExecHooks::between_chunks(move |p| {
                    seen.lock().unwrap().push(p);
                    true
                })
            };
            let got = map_chunked_cancellable(40, &cfg, &hooks, |range| {
                range.map(|i| i + 1).collect::<Vec<_>>()
            })
            .expect("never aborted");
            assert_eq!(got, expected, "threads = {threads}");
            let seen = seen.lock().unwrap().clone();
            assert!(
                seen.iter()
                    .any(|p| p.completed == total && p.total == total),
                "threads = {threads}: no final observation in {seen:?}"
            );
            if threads == 1 {
                // Serial observations are exactly one per boundary, in
                // order: 0, 1, ..., total.
                let expected_progress: Vec<ChunkProgress> = (0..=total)
                    .map(|completed| ChunkProgress { completed, total })
                    .collect();
                assert_eq!(seen, expected_progress);
            }
        }
    }

    #[test]
    fn hook_abort_frees_remaining_chunks() {
        // Serial: aborting after two completed chunks runs exactly two
        // chunks and reports the executed prefix.
        let cfg = CampaignConfig::with_threads(1).with_chunk(4);
        let total = chunk_ranges(64, effective_chunk(64, 4)).len();
        assert!(total > 2);
        let executed = AtomicUsize::new(0);
        let err = map_chunked_cancellable(
            64,
            &cfg,
            &ExecHooks::between_chunks(|p| p.completed < 2),
            |range| {
                executed.fetch_add(1, Ordering::Relaxed);
                range.collect::<Vec<_>>()
            },
        )
        .expect_err("hook aborts");
        assert_eq!(
            err,
            ChunkProgress {
                completed: 2,
                total
            }
        );
        assert_eq!(executed.into_inner(), 2);

        // Parallel: a hook that refuses immediately stops every worker
        // before it picks anything up.
        let cfg = CampaignConfig::with_threads(4).with_chunk(4);
        let executed = AtomicUsize::new(0);
        let err =
            map_chunked_cancellable(64, &cfg, &ExecHooks::between_chunks(|_| false), |range| {
                executed.fetch_add(1, Ordering::Relaxed);
                range.collect::<Vec<_>>()
            })
            .expect_err("hook aborts");
        assert_eq!(err.completed, 0);
        assert_eq!(err.total, total);
        assert_eq!(executed.into_inner(), 0);
    }
}
