//! The resident campaign daemon: worker pool, admission control,
//! deadlines, chunk-granular preemption, and service statistics.

use super::protocol::{self, ErrorCode, JobKind, JobRequest, Priority, Reply};
use super::queue::AdmissionQueue;
use crate::analysis::border::find_border_near;
use crate::analysis::detection::{derive_detection, DetectionCondition};
use crate::analysis::planes::plane_campaign_hooked;
use crate::analysis::shmoo::margin_shmoo;
use crate::analysis::sweep::CampaignFaults;
use crate::analysis::{DesignSpace, DesignSweepRequest};
use crate::exec::ExecHooks;
use crate::session::Session;
use dso_obs::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Latency-histogram bucket edges, milliseconds. Shared by both class
/// histograms so snapshots line up column-for-column.
pub const LATENCY_EDGES_MS: &[f64] = &[
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1e3, 2.5e3, 5e3, 1e4,
];

/// Daemon tuning, normally read from `DSO_SERVE_*` environment knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Worker threads draining the admission queue (`DSO_SERVE_WORKERS`,
    /// default 2).
    pub workers: usize,
    /// Admission-queue capacity across both classes (`DSO_SERVE_QUEUE`,
    /// default 64). Admission past this depth gets a `queue_full` reply.
    pub queue_capacity: usize,
    /// Largest accepted request line, bytes (`DSO_SERVE_MAX_FRAME`,
    /// default 65536). Longer lines get an `oversized_frame` reply.
    pub max_frame_bytes: usize,
    /// Deadline applied to requests that name none, milliseconds
    /// (`DSO_SERVE_DEADLINE_MS`, default 0 = unlimited).
    pub default_deadline_ms: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            max_frame_bytes: 65536,
            default_deadline_ms: 0.0,
        }
    }
}

impl ServeConfig {
    /// The default configuration overridden by any `DSO_SERVE_*`
    /// variables present in the environment (invalid values warn once
    /// and fall back, matching the other `DSO_*` knobs).
    pub fn from_env() -> Self {
        let d = ServeConfig::default();
        ServeConfig {
            workers: crate::env::positive_usize("DSO_SERVE_WORKERS", "the default worker count")
                .unwrap_or(d.workers),
            queue_capacity: crate::env::positive_usize(
                "DSO_SERVE_QUEUE",
                "the default queue capacity",
            )
            .unwrap_or(d.queue_capacity),
            max_frame_bytes: crate::env::positive_usize(
                "DSO_SERVE_MAX_FRAME",
                "the default frame limit",
            )
            .unwrap_or(d.max_frame_bytes),
            default_deadline_ms: crate::env::non_negative_f64(
                "DSO_SERVE_DEADLINE_MS",
                "no default deadline",
            )
            .unwrap_or(d.default_deadline_ms),
        }
    }
}

/// Cooperative cancellation state shared between a job's submitter and
/// the worker running it. Checked at chunk boundaries, so an abort frees
/// the remaining chunks of an in-flight campaign.
#[derive(Debug)]
pub struct JobControl {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl JobControl {
    fn new(deadline: Option<Instant>) -> Arc<JobControl> {
        Arc::new(JobControl {
            cancelled: AtomicBool::new(false),
            deadline,
        })
    }

    /// Requests cooperative cancellation (explicit `cancel` frame or a
    /// vanished client).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// The structured code the job should abort with right now, if any.
    /// Explicit cancellation wins over deadline expiry.
    pub fn should_stop(&self) -> Option<ErrorCode> {
        if self.cancelled.load(Ordering::Acquire) {
            return Some(ErrorCode::Cancelled);
        }
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => Some(ErrorCode::DeadlineExceeded),
            _ => None,
        }
    }
}

/// Where a job's replies go. Returns `false` when the client is gone;
/// the daemon then cancels the job cooperatively.
pub type ReplySink = Arc<dyn Fn(Reply) -> bool + Send + Sync>;

struct QueuedJob {
    request: JobRequest,
    control: Arc<JobControl>,
    sink: ReplySink,
    admitted: Instant,
}

/// Aggregate service counters and latency samples. Counters are
/// deterministic for a fixed workload; latency figures are wall-clock and
/// therefore nondeterministic.
#[derive(Debug, Default)]
struct StatsInner {
    accepted: u64,
    rejected: u64,
    completed: u64,
    cancelled: u64,
    deadline_exceeded: u64,
    failed: u64,
    preemptions: u64,
    queue_peak: usize,
    latency_interactive_ms: Vec<f64>,
    latency_bulk_ms: Vec<f64>,
}

/// A point-in-time copy of the daemon's statistics.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Jobs admitted to the queue.
    pub accepted: u64,
    /// Jobs rejected with `queue_full` backpressure.
    pub rejected: u64,
    /// Jobs that finished with a `done` reply.
    pub completed: u64,
    /// Jobs that ended `cancelled`.
    pub cancelled: u64,
    /// Jobs that ended `deadline_exceeded`.
    pub deadline_exceeded: u64,
    /// Jobs that ended `failed` (simulation error).
    pub failed: u64,
    /// Interactive jobs a bulk campaign ran inline between its chunks.
    pub preemptions: u64,
    /// Highest queue depth observed at admission.
    pub queue_peak: usize,
    /// Admission-to-done wall latencies of completed interactive jobs,
    /// milliseconds (nondeterministic).
    pub latency_interactive_ms: Vec<f64>,
    /// Admission-to-done wall latencies of completed bulk jobs,
    /// milliseconds (nondeterministic).
    pub latency_bulk_ms: Vec<f64>,
}

impl ServiceStats {
    /// The stats document sent in reply to a `stats` control frame.
    /// Counter fields are deterministic for a fixed workload; everything
    /// under `"latency_ms"` is wall-clock.
    pub fn to_json(&self, queue_depth: usize) -> Json {
        let class = |samples: &[f64]| {
            Json::Obj(BTreeMap::from([
                ("count".to_string(), Json::Num(samples.len() as f64)),
                ("p50".to_string(), Json::Num(percentile(samples, 0.50))),
                ("p95".to_string(), Json::Num(percentile(samples, 0.95))),
                ("p99".to_string(), Json::Num(percentile(samples, 0.99))),
            ]))
        };
        Json::Obj(BTreeMap::from([
            ("accepted".to_string(), Json::Num(self.accepted as f64)),
            ("rejected".to_string(), Json::Num(self.rejected as f64)),
            ("completed".to_string(), Json::Num(self.completed as f64)),
            ("cancelled".to_string(), Json::Num(self.cancelled as f64)),
            (
                "deadline_exceeded".to_string(),
                Json::Num(self.deadline_exceeded as f64),
            ),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            (
                "preemptions".to_string(),
                Json::Num(self.preemptions as f64),
            ),
            ("queue_depth".to_string(), Json::Num(queue_depth as f64)),
            ("queue_peak".to_string(), Json::Num(self.queue_peak as f64)),
            (
                "latency_ms".to_string(),
                Json::Obj(BTreeMap::from([
                    (
                        "interactive".to_string(),
                        class(&self.latency_interactive_ms),
                    ),
                    ("bulk".to_string(), class(&self.latency_bulk_ms)),
                ])),
            ),
        ]))
    }
}

/// Nearest-rank percentile of `samples` (`q` in `[0, 1]`); 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

struct Inner {
    session: Session,
    queue: AdmissionQueue<QueuedJob>,
    stats: Mutex<StatsInner>,
    config: ServeConfig,
}

/// Shared handle onto a running [`Daemon`]; transports submit through it.
#[derive(Clone)]
pub struct DaemonHandle {
    inner: Arc<Inner>,
}

/// A resident worker pool wrapping a [`Session`] behind the admission
/// queue. Dropping the daemon (or calling [`Daemon::shutdown`]) closes
/// the queue, drains the remaining jobs, and joins the workers.
pub struct Daemon {
    handle: DaemonHandle,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Starts `config.workers` worker threads over `session`.
    pub fn start(session: Session, config: ServeConfig) -> Daemon {
        let inner = Arc::new(Inner {
            session,
            queue: AdmissionQueue::new(config.queue_capacity),
            stats: Mutex::new(StatsInner::default()),
            config,
        });
        let workers = (0..inner.config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("dso-serve-{i}"))
                    .spawn(move || {
                        while let Some(job) = inner.queue.pop_blocking() {
                            run_job(&inner, job);
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();
        Daemon {
            handle: DaemonHandle {
                inner: Arc::clone(&inner),
            },
            workers,
        }
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> DaemonHandle {
        self.handle.clone()
    }

    /// Closes the admission queue, lets queued jobs drain, and joins the
    /// workers.
    pub fn shutdown(mut self) -> ServiceStats {
        self.handle.inner.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.handle.stats()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.inner.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl DaemonHandle {
    /// The daemon's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.config
    }

    /// The cancellation control for a job about to be submitted,
    /// applying the daemon's default deadline when the request names
    /// none. Created *before* [`DaemonHandle::submit`] so the transport
    /// can index it for `cancel` frames without racing the job's replies.
    pub fn make_control(&self, request: &JobRequest) -> Arc<JobControl> {
        let deadline_ms = match request.deadline_ms {
            Some(ms) => Some(ms),
            None if self.inner.config.default_deadline_ms > 0.0 => {
                Some(self.inner.config.default_deadline_ms)
            }
            None => None,
        };
        JobControl::new(
            deadline_ms.map(|ms| Instant::now() + std::time::Duration::from_secs_f64(ms / 1e3)),
        )
    }

    /// Submits a job. Sends `accepted` (and later exactly one terminal
    /// reply) through `sink`, or a terminal `queue_full` error right away
    /// under backpressure; returns whether the job was admitted. The
    /// slot is reserved and `accepted` emitted *before* the job becomes
    /// visible to workers, so the terminal reply can never overtake
    /// `accepted` on the sink.
    pub fn submit(&self, request: JobRequest, control: Arc<JobControl>, sink: ReplySink) -> bool {
        let class = request.priority;
        let id = request.id.clone();
        match self.inner.queue.try_reserve() {
            Some(depth) => {
                {
                    let mut stats = self.inner.stats.lock().expect("stats poisoned");
                    stats.accepted += 1;
                    stats.queue_peak = stats.queue_peak.max(depth);
                }
                dso_obs::counter!("serve.accepted").add(1);
                dso_obs::gauge!("serve.queue_depth", nondet).set(depth as f64);
                sink(Reply::Accepted {
                    id: id.clone(),
                    class,
                    queue_depth: depth,
                });
                let job = QueuedJob {
                    request,
                    control,
                    sink: Arc::clone(&sink),
                    admitted: Instant::now(),
                };
                if self.inner.queue.push_reserved(job, class).is_err() {
                    // The daemon shut down between the reservation and
                    // the push; honor the reply contract with a terminal
                    // error since `accepted` already went out.
                    self.inner.stats.lock().expect("stats poisoned").cancelled += 1;
                    dso_obs::counter!("serve.cancelled").add(1);
                    sink(Reply::Error {
                        id: Some(id),
                        code: ErrorCode::Cancelled,
                        detail: "daemon shut down before the job could run".to_string(),
                    });
                    return false;
                }
                true
            }
            None => {
                self.inner.stats.lock().expect("stats poisoned").rejected += 1;
                dso_obs::counter!("serve.rejected").add(1);
                sink(Reply::Error {
                    id: Some(id),
                    code: ErrorCode::QueueFull,
                    detail: format!(
                        "admission queue full ({} jobs); resubmit later",
                        self.inner.config.queue_capacity
                    ),
                });
                false
            }
        }
    }

    /// A snapshot of the service statistics.
    pub fn stats(&self) -> ServiceStats {
        let stats = self.inner.stats.lock().expect("stats poisoned");
        ServiceStats {
            accepted: stats.accepted,
            rejected: stats.rejected,
            completed: stats.completed,
            cancelled: stats.cancelled,
            deadline_exceeded: stats.deadline_exceeded,
            failed: stats.failed,
            preemptions: stats.preemptions,
            queue_peak: stats.queue_peak,
            latency_interactive_ms: stats.latency_interactive_ms.clone(),
            latency_bulk_ms: stats.latency_bulk_ms.clone(),
        }
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.depth()
    }
}

/// Runs one job to its terminal reply. Bulk campaigns get a
/// between-chunks hook that streams progress, steals pending interactive
/// jobs (chunk-granular preemption), and honors cancellation/deadline.
fn run_job(inner: &Arc<Inner>, job: QueuedJob) {
    let QueuedJob {
        request,
        control,
        sink,
        admitted,
    } = job;
    let id = request.id.clone();
    let class = request.priority;

    // A job whose deadline expired (or that was cancelled) while queued
    // never starts.
    if let Some(code) = control.should_stop() {
        finish_aborted(inner, &sink, id, code);
        return;
    }

    let hooks = {
        let control = Arc::clone(&control);
        let sink = Arc::clone(&sink);
        let sink_id = id.clone();
        let inner = Arc::clone(inner);
        let preempt = class == Priority::Bulk;
        let stream = matches!(request.kind, JobKind::Campaign { .. });
        let last_sent = Mutex::new(0usize);
        ExecHooks::between_chunks(move |progress| {
            if stream && progress.completed > 0 {
                let mut last = last_sent.lock().expect("progress poisoned");
                if progress.completed > *last {
                    *last = progress.completed;
                    drop(last);
                    if !sink(Reply::Chunk {
                        id: sink_id.clone(),
                        completed: progress.completed,
                        total: progress.total,
                    }) {
                        // Client gone: cancel cooperatively.
                        control.cancel();
                    }
                }
            }
            if preempt {
                while let Some(stolen) = inner.queue.try_pop_interactive() {
                    // How often stealing fires depends on scheduling, so
                    // the count lives in the (nondeterministic) stats and
                    // gauge, never in a deterministic counter.
                    inner.stats.lock().expect("stats poisoned").preemptions += 1;
                    run_job(&inner, stolen);
                }
            }
            control.should_stop().is_none()
        })
    };

    let session = &inner.session;
    let result = match &request.kind {
        JobKind::Campaign {
            defect,
            op,
            r_values,
            n_ops,
        }
        | JobKind::Planes {
            defect,
            op,
            r_values,
            n_ops,
        } => plane_campaign_hooked(
            session.service(),
            defect,
            op,
            r_values,
            *n_ops,
            &CampaignFaults::new(),
            session.config(),
            &hooks,
        )
        .map(|c| protocol::campaign_result(&c)),
        JobKind::Border {
            defect,
            op,
            settling,
            rel_tol,
        } => {
            let detection = DetectionCondition::default_for(defect, *settling);
            // The plain search, not `Session::border`'s prefetching one: the
            // daemon's workers already share the cores, so a prefetch helper
            // would compete with them.
            find_border_near(session.service(), defect, &detection, op, *rel_tol, None)
                .map(|b| protocol::border_result(&b))
        }
        JobKind::Detection {
            defect,
            op,
            r_target,
            max_settling,
        } => derive_detection(session.service(), defect, *r_target, op, *max_settling)
            .map(|d| protocol::detection_result(&d)),
        JobKind::Shmoo {
            defect,
            op,
            r_values,
            n_ops,
            stress,
            values,
        } => {
            let base = *op;
            let axis = *stress;
            margin_shmoo(
                session.service(),
                defect,
                *n_ops,
                r_values,
                axis.label(),
                values,
                move |v| Ok(axis.apply(&base, v)),
            )
            .map(|p| protocol::shmoo_result(&p))
        }
        JobKind::DesignSweep {
            designs,
            defects,
            op,
            r_points,
            n_ops,
        } => DesignSpace::new(designs.clone())
            .and_then(|space| {
                let sweep = DesignSweepRequest::new(defects.clone())
                    .with_op_points(vec![*op])
                    .with_r_points(*r_points)
                    .with_n_ops(*n_ops);
                session.design_sweep(&space, &sweep)
            })
            .map(|r| protocol::design_sweep_result(&r)),
    };

    match result {
        Ok(payload) => {
            let wall_ms = admitted.elapsed().as_secs_f64() * 1e3;
            {
                let mut stats = inner.stats.lock().expect("stats poisoned");
                stats.completed += 1;
                match class {
                    Priority::Interactive => stats.latency_interactive_ms.push(wall_ms),
                    Priority::Bulk => stats.latency_bulk_ms.push(wall_ms),
                }
            }
            dso_obs::counter!("serve.completed").add(1);
            match class {
                Priority::Interactive => {
                    dso_obs::histogram!("serve.latency_ms.interactive", LATENCY_EDGES_MS, nondet)
                        .observe(wall_ms)
                }
                Priority::Bulk => {
                    dso_obs::histogram!("serve.latency_ms.bulk", LATENCY_EDGES_MS, nondet)
                        .observe(wall_ms)
                }
            }
            sink(Reply::Done {
                id,
                result: payload,
                wall_ms,
            });
        }
        Err(e) => {
            // Map an exec-layer abort to the *reason* it was requested:
            // an expired deadline reports deadline_exceeded even though
            // the mechanism is the same cooperative chunk abort.
            let code = match (&e, control.should_stop()) {
                (crate::CoreError::Cancelled { .. }, Some(code)) => code,
                _ => protocol::code_for(&e),
            };
            if matches!(code, ErrorCode::Cancelled | ErrorCode::DeadlineExceeded) {
                finish_aborted(inner, &sink, id, code);
            } else {
                inner.stats.lock().expect("stats poisoned").failed += 1;
                dso_obs::counter!("serve.failed").add(1);
                sink(Reply::Error {
                    id: Some(id),
                    code,
                    detail: e.to_string(),
                });
            }
        }
    }
}

fn finish_aborted(inner: &Arc<Inner>, sink: &ReplySink, id: String, code: ErrorCode) {
    {
        let mut stats = inner.stats.lock().expect("stats poisoned");
        match code {
            ErrorCode::DeadlineExceeded => stats.deadline_exceeded += 1,
            _ => stats.cancelled += 1,
        }
    }
    match code {
        ErrorCode::DeadlineExceeded => dso_obs::counter!("serve.deadline_exceeded").add(1),
        _ => dso_obs::counter!("serve.cancelled").add(1),
    }
    let detail = match code {
        ErrorCode::DeadlineExceeded => "deadline expired before the job finished".to_string(),
        _ => "job cancelled".to_string(),
    };
    sink(Reply::Error {
        id: Some(id),
        code,
        detail,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[5.0], 0.5), 5.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // Order-insensitive.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.99), 3.0);
    }

    #[test]
    fn serve_config_env_round_trip() {
        let d = ServeConfig::default();
        assert_eq!(d.workers, 2);
        assert_eq!(d.queue_capacity, 64);
        assert_eq!(d.max_frame_bytes, 65536);
        assert_eq!(d.default_deadline_ms, 0.0);
    }

    #[test]
    fn job_control_precedence() {
        let c = JobControl::new(Some(Instant::now() - std::time::Duration::from_millis(1)));
        assert_eq!(c.should_stop(), Some(ErrorCode::DeadlineExceeded));
        c.cancel();
        assert_eq!(c.should_stop(), Some(ErrorCode::Cancelled));
        let c = JobControl::new(None);
        assert_eq!(c.should_stop(), None);
    }
}
