//! Mixed-workload replay drill for the campaign service daemon.
//!
//! A seeded interleave of interactive queries (borders, detection
//! derivations, a small plane sweep, a shmoo) is replayed over a running
//! bulk campaign against an embedded daemon, once per worker-pool
//! parallelism in {1, 2, 4, 8}. The drill gates — and exits non-zero if
//! any gate fails — on:
//!
//! * **bit identity**: every job's terminal payload is byte-identical
//!   across all thread counts *and* to the equivalent direct [`Session`]
//!   call (the service determinism contract, DESIGN.md §11),
//! * **zero dropped or duplicated responses**: every job gets exactly one
//!   `accepted` and exactly one terminal reply; campaign progress frames
//!   are strictly monotonic and end at the full chunk count,
//! * **zero protocol errors** across the replay,
//! * **interactive tail latency**: pooled interactive-class p99 under
//!   [`SERVE_P99_GATE_MS`],
//! * **abort semantics**: a deadline-expired campaign reports
//!   `deadline_exceeded`, an explicitly cancelled one reports
//!   `cancelled`, and an over-capacity burst gets `queue_full`
//!   backpressure replies rather than stalls.
//!
//! Latency histograms, queue stats, and cancellation counts land in a
//! timestamped JSON under `results/`. Run with:
//!
//! ```text
//! cargo run --release --example serve_drill
//! ```

use dram_stress_opt::analysis::Analyzer;
use dram_stress_opt::defects::{BitLineSide, Defect};
use dram_stress_opt::dram::column::DefectSite;
use dram_stress_opt::dram::design::{ColumnDesign, OperatingPoint};
use dram_stress_opt::eval::EvalService;
use dram_stress_opt::exec::CampaignConfig;
use dram_stress_opt::num::interp::logspace;
use dram_stress_opt::obs::json::Json;
use dram_stress_opt::service::{
    percentile, protocol, serve_connection, Daemon, ErrorCode, JobKind, JobRequest, Priority,
    Reply, ServeConfig, ServiceStats, StressAxis, LATENCY_EDGES_MS,
};
use dram_stress_opt::Session;
use std::collections::BTreeMap;
use std::io::Cursor;
use std::sync::{Arc, Condvar, Mutex};

/// Hard gate on the pooled interactive-class p99 latency. The drill's
/// queries take tens of milliseconds at the drill's coarse time base even
/// with a bulk campaign chunk ahead of them; a p99 beyond this means
/// preemption stopped working, not that CI was slow.
const SERVE_P99_GATE_MS: f64 = 2_500.0;

/// Deterministic workload seed (split-mix style LCG).
const SEED: u64 = 0x5e1_d011;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        // SplitMix64: tiny, seedable, and identical on every platform.
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The drill's session: the production pipeline on a coarser time base so
/// a five-way replay stays affordable in CI.
fn fast_session(threads: usize) -> Session {
    let analyzer = Analyzer::new(ColumnDesign {
        dt_fraction: 1.0 / 250.0,
        ..ColumnDesign::default()
    });
    Session::from_parts(
        EvalService::new(analyzer),
        CampaignConfig::with_threads(threads).with_chunk(2),
    )
}

/// The replayed workload: one bulk campaign plus a seeded shuffle of
/// interactive queries, every query on a defect distinct from the
/// campaign's so cross-job cache reuse cannot couple their warm-start
/// seeds (the exact condition the determinism contract is stated under).
fn workload() -> Vec<JobRequest> {
    let op = OperatingPoint::nominal();
    let bulk = JobRequest {
        id: "bulk-campaign".into(),
        kind: JobKind::Campaign {
            defect: Defect::cell_open(BitLineSide::True),
            op,
            r_values: logspace(1e4, 1e8, 16).expect("valid sweep"),
            n_ops: 2,
        },
        priority: Priority::Bulk,
        deadline_ms: None,
    };
    let geo_mid = |d: &Defect| {
        let (lo, hi) = d.sweep_range();
        (lo * hi).sqrt()
    };
    let sg = Defect::new(DefectSite::Sg, BitLineSide::True);
    let o3c = Defect::cell_open(BitLineSide::Comp);
    let sv = Defect::new(DefectSite::Sv, BitLineSide::True);
    let o1 = Defect::new(DefectSite::O1, BitLineSide::True);
    let o2 = Defect::new(DefectSite::O2, BitLineSide::True);
    let b2 = Defect::new(DefectSite::B2, BitLineSide::True);
    let o2_range = {
        let (lo, hi) = o2.sweep_range();
        logspace(lo, hi, 6).expect("valid sweep")
    };
    let mut interactive = vec![
        JobRequest {
            id: "q-border-sg".into(),
            kind: JobKind::Border {
                defect: sg,
                op,
                settling: 2,
                rel_tol: 0.05,
            },
            priority: Priority::Interactive,
            deadline_ms: None,
        },
        JobRequest {
            id: "q-border-o3c".into(),
            kind: JobKind::Border {
                defect: o3c,
                op,
                settling: 2,
                rel_tol: 0.05,
            },
            priority: Priority::Interactive,
            deadline_ms: None,
        },
        JobRequest {
            id: "q-detect-sv".into(),
            kind: JobKind::Detection {
                defect: sv,
                op,
                r_target: geo_mid(&sv),
                max_settling: 4,
            },
            priority: Priority::Interactive,
            deadline_ms: None,
        },
        JobRequest {
            id: "q-detect-o1".into(),
            kind: JobKind::Detection {
                defect: o1,
                op,
                r_target: geo_mid(&o1),
                max_settling: 4,
            },
            priority: Priority::Interactive,
            deadline_ms: None,
        },
        JobRequest {
            id: "q-planes-o2".into(),
            kind: JobKind::Planes {
                defect: o2,
                op,
                r_values: o2_range,
                n_ops: 1,
            },
            priority: Priority::Interactive,
            deadline_ms: None,
        },
        JobRequest {
            id: "q-shmoo-b2".into(),
            kind: JobKind::Shmoo {
                defect: b2,
                op,
                r_values: logspace(1e5, 1e7, 3).expect("valid sweep"),
                n_ops: 1,
                stress: StressAxis::Vdd,
                values: vec![2.0, 2.4, 2.8],
            },
            priority: Priority::Interactive,
            deadline_ms: None,
        },
    ];
    // Seeded Fisher–Yates: the interleave is shuffled but identical on
    // every run and platform.
    let mut lcg = Lcg(SEED);
    for i in (1..interactive.len()).rev() {
        interactive.swap(i, lcg.below(i + 1));
    }
    let mut jobs = vec![bulk];
    jobs.extend(interactive);
    jobs
}

/// A flag that threads can wait on until it is raised.
#[derive(Default)]
struct Latch {
    raised: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn raise(&self) {
        *self.raised.lock().expect("latch poisoned") = true;
        self.cv.notify_all();
    }

    fn is_raised(&self) -> bool {
        *self.raised.lock().expect("latch poisoned")
    }

    /// Waits until the flag is raised, or `limit` has passed (so a
    /// campaign that never reports progress fails the drill's checks
    /// instead of hanging it).
    fn wait(&self, limit: std::time::Duration) {
        let raised = self.raised.lock().expect("latch poisoned");
        let _ = self
            .cv
            .wait_timeout_while(raised, limit, |raised| !*raised)
            .expect("latch poisoned");
    }
}

/// A replayer-side pacing reader: the first frame (the bulk campaign) is
/// served immediately, the second (the first interactive query) once the
/// reply stream has carried the campaign's first `chunk` progress frame
/// (`campaign_running`, raised by [`SharedBuf`]), every later frame after
/// a fixed think-time gap. So the queries arrive while the campaign has
/// chunks left to run, whatever the host's speed, and exercise the
/// chunk-granular preemption path instead of just overtaking in the
/// queue.
struct PacedReader {
    lines: Vec<Vec<u8>>,
    next: usize,
    buf: Vec<u8>,
    pos: usize,
    gap: std::time::Duration,
    campaign_running: Arc<Latch>,
}

impl PacedReader {
    fn new(frames: &[String], gap_ms: u64, campaign_running: Arc<Latch>) -> PacedReader {
        PacedReader {
            lines: frames
                .iter()
                .map(|f| format!("{f}\n").into_bytes())
                .collect(),
            next: 0,
            buf: Vec::new(),
            pos: 0,
            gap: std::time::Duration::from_millis(gap_ms),
            campaign_running,
        }
    }
}

impl std::io::Read for PacedReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        use std::io::BufRead;
        let available = self.fill_buf()?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl std::io::BufRead for PacedReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            if self.next >= self.lines.len() {
                return Ok(&[]);
            }
            match self.next {
                0 => {}
                1 => self
                    .campaign_running
                    .wait(std::time::Duration::from_secs(60)),
                _ => std::thread::sleep(self.gap),
            }
            self.buf = self.lines[self.next].clone();
            self.pos = 0;
            self.next += 1;
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

/// A `Write` target shared with the connection's writer thread. It raises
/// `chunk_seen` once the replies written so far hold a `chunk` progress
/// frame.
#[derive(Clone, Default)]
struct SharedBuf {
    bytes: Arc<Mutex<Vec<u8>>>,
    chunk_seen: Arc<Latch>,
}

impl SharedBuf {
    /// Everything written so far.
    fn text(&self) -> String {
        let bytes = self.bytes.lock().expect("buffer poisoned").clone();
        String::from_utf8(bytes).expect("replies are UTF-8")
    }
}

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut bytes = self.bytes.lock().expect("buffer poisoned");
        bytes.extend_from_slice(buf);
        let frame = br#""event":"chunk""#;
        if !self.chunk_seen.is_raised() && bytes.windows(frame.len()).any(|w| w == frame) {
            self.chunk_seen.raise();
        }
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The canonical terminal outcome of one job: the `done` payload's exact
/// serialization, or the structured error. `wall_ms` is deliberately
/// excluded — it is the one nondeterministic reply field.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Terminal {
    Done(String),
    Failed(ErrorCode, String),
}

impl std::fmt::Display for Terminal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Terminal::Done(payload) => write!(f, "done {payload}"),
            Terminal::Failed(code, detail) => write!(f, "error {} {detail}", code.label()),
        }
    }
}

/// One daemon replay's digest.
struct RunDigest {
    terminals: BTreeMap<String, Terminal>,
    stats: ServiceStats,
    protocol_ok: bool,
}

/// Replays `jobs` against a fresh single-worker daemon whose session runs
/// chunks on `threads` threads, and digests the reply stream.
fn replay(jobs: &[JobRequest], threads: usize) -> RunDigest {
    let daemon = Daemon::start(
        fast_session(threads),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let mut frames: Vec<String> = jobs.iter().map(JobRequest::to_line).collect();
    frames.push("{\"control\":\"shutdown\"}".to_string());
    let out = SharedBuf::default();
    serve_connection(
        &daemon.handle(),
        PacedReader::new(&frames, 150, Arc::clone(&out.chunk_seen)),
        out.clone(),
    )
    .expect("replay transport");
    let stats = daemon.shutdown();
    let text = out.text();
    let mut protocol_ok = true;
    let mut accepted: BTreeMap<String, usize> = BTreeMap::new();
    let mut chunks: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
    let mut terminals: BTreeMap<String, Terminal> = BTreeMap::new();
    let known: Vec<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
    for line in text.lines() {
        let reply = match Reply::parse(line) {
            Ok(reply) => reply,
            Err(e) => {
                eprintln!("FAIL[t{threads}]: unparseable reply {line:?}: {e}");
                protocol_ok = false;
                continue;
            }
        };
        let id = reply.id().unwrap_or("").to_string();
        if !known.contains(&id.as_str()) {
            eprintln!("FAIL[t{threads}]: reply for unknown id {id:?}");
            protocol_ok = false;
            continue;
        }
        if terminals.contains_key(&id) {
            eprintln!("FAIL[t{threads}]: reply after terminal for {id:?}: {line}");
            protocol_ok = false;
            continue;
        }
        match reply {
            Reply::Accepted { .. } => *accepted.entry(id).or_insert(0) += 1,
            Reply::Chunk {
                completed, total, ..
            } => chunks.entry(id).or_default().push((completed, total)),
            Reply::Done { result, .. } => {
                terminals.insert(id, Terminal::Done(result.to_string()));
            }
            Reply::Error { code, detail, .. } => {
                terminals.insert(id, Terminal::Failed(code, detail));
            }
            Reply::Stats { .. } => {
                eprintln!("FAIL[t{threads}]: unsolicited stats frame");
                protocol_ok = false;
            }
        }
    }
    // Exactly one accepted + one terminal per job; campaign progress is
    // strictly monotonic and complete.
    for job in jobs {
        if accepted.get(&job.id) != Some(&1) {
            eprintln!(
                "FAIL[t{threads}]: {:?} accepted {} time(s)",
                job.id,
                accepted.get(&job.id).unwrap_or(&0)
            );
            protocol_ok = false;
        }
        if !terminals.contains_key(&job.id) {
            eprintln!(
                "FAIL[t{threads}]: {:?} got no terminal reply (dropped)",
                job.id
            );
            protocol_ok = false;
        }
        let streamed = chunks.get(&job.id).cloned().unwrap_or_default();
        if matches!(job.kind, JobKind::Campaign { .. }) {
            if !streamed.windows(2).all(|w| w[0].0 < w[1].0) {
                eprintln!("FAIL[t{threads}]: {:?} progress not monotonic", job.id);
                protocol_ok = false;
            }
            match streamed.last() {
                Some(&(completed, total)) if completed == total => {}
                other => {
                    eprintln!(
                        "FAIL[t{threads}]: {:?} progress ended at {other:?}, want completed == total",
                        job.id
                    );
                    protocol_ok = false;
                }
            }
        } else if !streamed.is_empty() {
            eprintln!(
                "FAIL[t{threads}]: {:?} is not a campaign but streamed chunks",
                job.id
            );
            protocol_ok = false;
        }
    }
    RunDigest {
        terminals,
        stats,
        protocol_ok,
    }
}

/// The same workload executed directly on a [`Session`] — the ground
/// truth the daemon's payloads must match bit for bit.
fn direct(jobs: &[JobRequest], threads: usize) -> BTreeMap<String, Terminal> {
    let session = fast_session(threads);
    jobs.iter()
        .map(|job| {
            let outcome = match &job.kind {
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
                } => session
                    .planes(defect, op, r_values, *n_ops)
                    .map(|c| protocol::campaign_result(&c)),
                JobKind::Border {
                    defect,
                    op,
                    settling,
                    rel_tol,
                } => {
                    let detection = dram_stress_opt::analysis::DetectionCondition::default_for(
                        defect, *settling,
                    );
                    session
                        .border(defect, &detection, op, *rel_tol)
                        .map(|b| protocol::border_result(&b))
                }
                JobKind::Detection {
                    defect,
                    op,
                    r_target,
                    max_settling,
                } => session
                    .detect(defect, *r_target, op, *max_settling)
                    .map(|d| protocol::detection_result(&d)),
                JobKind::DesignSweep {
                    designs,
                    defects,
                    op,
                    r_points,
                    n_ops,
                } => dram_stress_opt::analysis::DesignSpace::new(designs.clone())
                    .and_then(|space| {
                        let sweep =
                            dram_stress_opt::analysis::DesignSweepRequest::new(defects.clone())
                                .with_op_points(vec![*op])
                                .with_r_points(*r_points)
                                .with_n_ops(*n_ops);
                        session.design_sweep(&space, &sweep)
                    })
                    .map(|r| protocol::design_sweep_result(&r)),
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
                    session
                        .shmoo(defect, *n_ops, r_values, axis.label(), values, move |v| {
                            Ok(axis.apply(&base, v))
                        })
                        .map(|p| protocol::shmoo_result(&p))
                }
            };
            let terminal = match outcome {
                Ok(payload) => Terminal::Done(payload.to_string()),
                Err(e) => Terminal::Failed(protocol::code_for(&e), e.to_string()),
            };
            (job.id.clone(), terminal)
        })
        .collect()
}

/// Exercises the abort semantics: a deadline that expires instantly, an
/// explicit cancel, and a burst into a single-slot queue. Returns
/// (deadline_exceeded, cancelled, queue_full) counts and protocol health.
fn abort_exercise() -> (u64, u64, u64, bool) {
    let mut ok = true;

    // Deadline + explicit cancel on one graceful connection.
    let daemon = Daemon::start(
        fast_session(2),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let campaign = |id: &str, deadline_ms: Option<f64>| JobRequest {
        id: id.into(),
        kind: JobKind::Campaign {
            defect: Defect::cell_open(BitLineSide::True),
            op: OperatingPoint::nominal(),
            r_values: logspace(1e4, 1e8, 16).expect("valid sweep"),
            n_ops: 2,
        },
        priority: Priority::Bulk,
        deadline_ms,
    };
    let input = format!(
        "{}\n{}\n{{\"control\":\"cancel\",\"id\":\"c-cancel\"}}\n{{\"control\":\"shutdown\"}}\n",
        campaign("c-deadline", Some(0.0)).to_line(),
        campaign("c-cancel", None).to_line(),
    );
    let out = SharedBuf::default();
    serve_connection(&daemon.handle(), Cursor::new(input), out.clone()).expect("abort transport");
    let stats = daemon.shutdown();
    let text = out.text();
    let mut saw = BTreeMap::new();
    for line in text.lines() {
        if let Ok(Reply::Error {
            id: Some(id), code, ..
        }) = Reply::parse(line)
        {
            saw.insert(id, code);
        }
    }
    if saw.get("c-deadline") != Some(&ErrorCode::DeadlineExceeded) {
        eprintln!(
            "FAIL: expired deadline reported {:?}",
            saw.get("c-deadline")
        );
        ok = false;
    }
    if saw.get("c-cancel") != Some(&ErrorCode::Cancelled) {
        eprintln!("FAIL: explicit cancel reported {:?}", saw.get("c-cancel"));
        ok = false;
    }

    // Backpressure: burst five campaigns into a one-slot queue, then
    // vanish (EOF) so whatever was admitted cancels at the next chunk
    // boundary instead of running out the clock.
    let daemon = Daemon::start(
        fast_session(2),
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        },
    );
    let input: String = (0..5)
        .map(|i| format!("{}\n", campaign(&format!("burst-{i}"), None).to_line()))
        .collect();
    let out = SharedBuf::default();
    serve_connection(&daemon.handle(), Cursor::new(input), out.clone()).expect("burst transport");
    let burst = daemon.shutdown();
    let text = out.text();
    let mut terminals = 0;
    let mut queue_full = 0;
    for line in text.lines() {
        match Reply::parse(line) {
            Ok(Reply::Error { code, .. }) => {
                terminals += 1;
                if code == ErrorCode::QueueFull {
                    queue_full += 1;
                }
            }
            Ok(Reply::Done { .. }) => terminals += 1,
            _ => {}
        }
    }
    if burst.rejected < 3 {
        eprintln!(
            "FAIL: one-slot queue rejected only {} of a 5-job burst",
            burst.rejected
        );
        ok = false;
    }
    if burst.accepted + burst.rejected != 5 || terminals != 5 {
        eprintln!(
            "FAIL: burst accounting: {} accepted + {} rejected, {terminals} terminals (want 5)",
            burst.accepted, burst.rejected
        );
        ok = false;
    }

    (
        stats.deadline_exceeded,
        stats.cancelled + burst.cancelled,
        queue_full,
        ok,
    )
}

/// Fixed-bucket counts of `samples` over [`LATENCY_EDGES_MS`] (last
/// bucket = overflow), serialized for the drill's JSON artifact.
fn bucket_counts(samples: &[f64]) -> Json {
    let mut counts = vec![0u64; LATENCY_EDGES_MS.len() + 1];
    for &s in samples {
        let i = LATENCY_EDGES_MS.partition_point(|&e| e < s);
        counts[i] += 1;
    }
    Json::Arr(counts.into_iter().map(|c| Json::Num(c as f64)).collect())
}

fn main() {
    let jobs = workload();
    let threads = [1usize, 2, 4, 8];

    // Ground truth first: the direct Session execution of the workload.
    println!("serve drill: direct baseline ...");
    let baseline = direct(&jobs, 4);

    let mut failed = false;
    let mut interactive_ms: Vec<f64> = Vec::new();
    let mut bulk_ms: Vec<f64> = Vec::new();
    let mut queue_peak = 0usize;
    let mut preemptions = 0u64;
    let mut digests: Vec<(usize, RunDigest)> = Vec::new();
    for t in threads {
        println!("serve drill: daemon replay at {t} thread(s) ...");
        let digest = replay(&jobs, t);
        if !digest.protocol_ok {
            failed = true;
        }
        // Deterministic service counters must not depend on parallelism.
        let s = &digest.stats;
        if (
            s.accepted,
            s.completed,
            s.rejected,
            s.cancelled,
            s.deadline_exceeded,
            s.failed,
        ) != (jobs.len() as u64, jobs.len() as u64, 0, 0, 0, 0)
        {
            eprintln!(
                "FAIL[t{t}]: counters accepted={} completed={} rejected={} cancelled={} \
                 deadline_exceeded={} failed={} (want {}/{}/0/0/0/0)",
                s.accepted,
                s.completed,
                s.rejected,
                s.cancelled,
                s.deadline_exceeded,
                s.failed,
                jobs.len(),
                jobs.len()
            );
            failed = true;
        }
        // The first query is released on the campaign's first progress
        // frame, so it lands while chunks remain: every replay must
        // exercise the preemption path at least once.
        if s.preemptions == 0 {
            eprintln!(
                "FAIL[t{t}]: no interactive job was run inline between campaign chunks \
                 (preemption path unexercised)"
            );
            failed = true;
        }
        interactive_ms.extend_from_slice(&s.latency_interactive_ms);
        bulk_ms.extend_from_slice(&s.latency_bulk_ms);
        queue_peak = queue_peak.max(s.queue_peak);
        preemptions += s.preemptions;
        digests.push((t, digest));
    }

    // Bit identity: every terminal payload equals the direct baseline's.
    let mut divergences = 0usize;
    for (t, digest) in &digests {
        for job in &jobs {
            let (Some(got), Some(want)) = (digest.terminals.get(&job.id), baseline.get(&job.id))
            else {
                continue; // already failed the drop gate above
            };
            if got != want {
                eprintln!(
                    "FAIL[t{t}]: {:?} diverges from direct Session\n  daemon: {got}\n  direct: {want}",
                    job.id
                );
                divergences += 1;
            }
        }
    }
    if divergences > 0 {
        failed = true;
    }

    let (deadline_exceeded, cancelled, queue_full, abort_ok) = abort_exercise();
    if !abort_ok {
        failed = true;
    }

    let p99 = percentile(&interactive_ms, 0.99);
    println!(
        "interactive latency over {} samples: p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms \
         (gate {SERVE_P99_GATE_MS} ms); {} preemption(s), queue peak {}",
        interactive_ms.len(),
        percentile(&interactive_ms, 0.50),
        percentile(&interactive_ms, 0.95),
        p99,
        preemptions,
        queue_peak
    );
    if p99 > SERVE_P99_GATE_MS {
        eprintln!("FAIL: interactive p99 {p99:.1} ms exceeds the {SERVE_P99_GATE_MS} ms gate");
        failed = true;
    }

    // Archive histograms, queue stats, and cancellation counts.
    std::fs::create_dir_all("results").expect("create results/");
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let class = |samples: &[f64]| {
        Json::Obj(BTreeMap::from([
            ("count".to_string(), Json::Num(samples.len() as f64)),
            ("p50_ms".to_string(), Json::Num(percentile(samples, 0.50))),
            ("p95_ms".to_string(), Json::Num(percentile(samples, 0.95))),
            ("p99_ms".to_string(), Json::Num(percentile(samples, 0.99))),
            ("buckets".to_string(), bucket_counts(samples)),
        ]))
    };
    let doc = Json::Obj(BTreeMap::from([
        (
            "threads".to_string(),
            Json::Arr(threads.iter().map(|&t| Json::Num(t as f64)).collect()),
        ),
        ("jobs".to_string(), Json::Num(jobs.len() as f64)),
        (
            "edges_ms".to_string(),
            Json::Arr(LATENCY_EDGES_MS.iter().map(|&e| Json::Num(e)).collect()),
        ),
        ("interactive".to_string(), class(&interactive_ms)),
        ("bulk".to_string(), class(&bulk_ms)),
        ("queue_peak".to_string(), Json::Num(queue_peak as f64)),
        ("preemptions".to_string(), Json::Num(preemptions as f64)),
        (
            "deadline_exceeded".to_string(),
            Json::Num(deadline_exceeded as f64),
        ),
        ("cancelled".to_string(), Json::Num(cancelled as f64)),
        ("queue_full".to_string(), Json::Num(queue_full as f64)),
        ("divergences".to_string(), Json::Num(divergences as f64)),
        ("p99_gate_ms".to_string(), Json::Num(SERVE_P99_GATE_MS)),
    ]));
    let archived = format!("results/SERVE_drill-{stamp}.json");
    std::fs::write(&archived, format!("{doc}\n"))
        .unwrap_or_else(|e| panic!("write {archived}: {e}"));
    println!("wrote {archived}");

    if failed {
        std::process::exit(1);
    }
    println!("serve drill: OK — bit-identical across threads {threads:?} and vs direct Session");
}
