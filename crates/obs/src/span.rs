//! Hierarchical span tracing with JSONL export.
//!
//! A span covers one unit of work — a campaign, a sweep point, a DRAM
//! operation, a Newton solve — and nests through a thread-local stack:
//! entering a span makes it the parent of every span opened on the same
//! thread until its RAII [`SpanGuard`] drops. Work handed to another
//! thread re-parents explicitly: capture [`current_span_id`] before the
//! handoff and open the child with [`span_child_of`] on the worker.
//!
//! Each enter/exit pair is written as one JSON object per line (JSONL) to
//! the file given to [`trace_to_file`] — usually via the `DSO_TRACE`
//! environment variable (see [`init_from_env`]):
//!
//! ```text
//! {"ev":"enter","id":2,"level":"coarse","name":"sweep.point","parent":1,"t_mono_us":312,"t_wall_ms":1759160000000,"thread":"ThreadId(1)"}
//! {"dur_us":8123,"ev":"exit","id":2,"t_mono_us":8435}
//! ```
//!
//! `t_wall_ms` is wall-clock milliseconds since the Unix epoch;
//! `t_mono_us` is monotonic microseconds since the tracer was opened, so
//! exit minus enter is a real duration even across clock adjustments.
//! Lines are buffered, and closing a root span (one without a parent)
//! flushes them, so a program that exits without [`trace_shutdown`] keeps
//! every root span it closed, with everything inside it.
//!
//! Two verbosity levels keep hot-loop spans from flooding the stream:
//! [`Level::Coarse`] (campaign, sweep point, operation, transient) is the
//! default; [`Level::Fine`] adds per-Newton-solve spans and is selected
//! with `DSO_TRACE_LEVEL=fine`. Tracing off (the default) costs one
//! relaxed atomic load per span site.

use crate::json::{escape, format_f64};
use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Span verbosity level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Campaign / sweep-point / operation / transient granularity.
    Coarse,
    /// Adds hot-loop spans (individual Newton solves).
    Fine,
}

impl Level {
    fn label(&self) -> &'static str {
        match self {
            Level::Coarse => "coarse",
            Level::Fine => "fine",
        }
    }
}

struct Tracer {
    out: Mutex<BufWriter<File>>,
    level: Level,
    next_id: AtomicU64,
    epoch: Instant,
}

impl Tracer {
    fn write_line(&self, line: &str) {
        // Best effort: a full disk must not take the simulation down.
        if let Ok(mut out) = self.out.lock() {
            let _ = out.write_all(line.as_bytes());
            let _ = out.write_all(b"\n");
        }
    }

    fn mono_us(&self) -> u128 {
        self.epoch.elapsed().as_micros()
    }

    /// Hands what is buffered to the file, so a program that exits
    /// without [`trace_shutdown`] still leaves every closed root span.
    fn flush(&self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

static TRACE_ON: AtomicBool = AtomicBool::new(false);

fn tracer_slot() -> &'static Mutex<Option<Arc<Tracer>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<Tracer>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

fn active_tracer() -> Option<Arc<Tracer>> {
    if !TRACE_ON.load(Ordering::Relaxed) {
        return None;
    }
    tracer_slot()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// `true` while a trace sink is open. One relaxed atomic load.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

/// Opens (or replaces) the JSONL trace sink. Spans at or below `level`
/// are recorded from now on. A previously open sink is flushed first.
///
/// # Errors
///
/// Returns the I/O error if the file cannot be created.
pub fn trace_to_file(path: &Path, level: Level) -> std::io::Result<()> {
    let file = File::create(path)?;
    let tracer = Arc::new(Tracer {
        out: Mutex::new(BufWriter::new(file)),
        level,
        next_id: AtomicU64::new(1),
        epoch: Instant::now(),
    });
    let mut slot = tracer_slot().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(old) = slot.take() {
        old.flush();
    }
    *slot = Some(tracer);
    TRACE_ON.store(true, Ordering::Relaxed);
    Ok(())
}

/// Flushes and closes the trace sink. Span sites return to the one-atomic
/// disabled fast path. Safe to call when tracing was never enabled.
pub fn trace_shutdown() {
    TRACE_ON.store(false, Ordering::Relaxed);
    let old = tracer_slot()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take();
    if let Some(tracer) = old {
        tracer.flush();
    }
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The id of the innermost span open on this thread, for re-parenting
/// work that crosses threads (pass it to [`span_child_of`] on the
/// worker). `None` when no span is open or tracing is off.
pub fn current_span_id() -> Option<u64> {
    if !trace_enabled() {
        return None;
    }
    SPAN_STACK
        .try_with(|s| s.borrow().last().copied())
        .ok()
        .flatten()
}

/// RAII guard for one span: created by [`span`], [`span_fine`], or
/// [`span_child_of`]; writes the exit event when dropped. Inactive (and
/// free) while tracing is off or the span's level is filtered out.
#[must_use = "a span covers the scope of its guard; dropping it immediately closes the span"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    tracer: Arc<Tracer>,
    id: u64,
    enter_us: u128,
    on_stack: bool,
    /// No parent: closing it flushes the sink.
    root: bool,
}

impl SpanGuard {
    fn open(name: &str, level: Level, explicit_parent: Option<Option<u64>>) -> SpanGuard {
        let Some(tracer) = active_tracer() else {
            return SpanGuard { active: None };
        };
        if level > tracer.level {
            return SpanGuard { active: None };
        }
        let id = tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = match explicit_parent {
            Some(p) => p,
            None => SPAN_STACK
                .try_with(|s| s.borrow().last().copied())
                .ok()
                .flatten(),
        };
        let enter_us = tracer.mono_us();
        let wall_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let parent_field = match parent {
            Some(p) => format!(r#","parent":{p}"#),
            None => String::new(),
        };
        tracer.write_line(&format!(
            r#"{{"ev":"enter","id":{id},"level":"{}","name":{}{parent_field},"t_mono_us":{enter_us},"t_wall_ms":{wall_ms},"thread":{}}}"#,
            level.label(),
            escape(name),
            escape(&format!("{:?}", std::thread::current().id())),
        ));
        let on_stack = SPAN_STACK.try_with(|s| s.borrow_mut().push(id)).is_ok();
        SpanGuard {
            active: Some(ActiveSpan {
                tracer,
                id,
                enter_us,
                on_stack,
                root: parent.is_none(),
            }),
        }
    }

    /// `true` when this guard is recording (tracing on, level admitted).
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// The span id, when recording.
    pub fn id(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.id)
    }

    /// Attaches a numeric attribute to the span as a standalone `note`
    /// event (JSONL is append-only, so attributes learned mid-span are
    /// emitted as they arrive).
    pub fn note(&self, key: &str, value: f64) {
        if let Some(a) = &self.active {
            a.tracer.write_line(&format!(
                r#"{{"ev":"note","key":{},"span":{},"t_mono_us":{},"value":{}}}"#,
                escape(key),
                a.id,
                a.tracer.mono_us(),
                format_f64(value),
            ));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            if a.on_stack {
                let _ = SPAN_STACK.try_with(|s| {
                    let mut stack = s.borrow_mut();
                    if stack.last() == Some(&a.id) {
                        stack.pop();
                    } else {
                        // Out-of-order drop: remove wherever it sits.
                        stack.retain(|&id| id != a.id);
                    }
                });
            }
            let exit_us = a.tracer.mono_us();
            a.tracer.write_line(&format!(
                r#"{{"dur_us":{},"ev":"exit","id":{},"t_mono_us":{exit_us}}}"#,
                exit_us.saturating_sub(a.enter_us),
                a.id,
            ));
            if a.root {
                a.tracer.flush();
            }
        }
    }
}

/// Opens a coarse-level span parented to the innermost open span on this
/// thread.
#[inline]
pub fn span(name: &str) -> SpanGuard {
    if !trace_enabled() {
        return SpanGuard { active: None };
    }
    SpanGuard::open(name, Level::Coarse, None)
}

/// Opens a fine-level span (recorded only under `DSO_TRACE_LEVEL=fine`).
#[inline]
pub fn span_fine(name: &str) -> SpanGuard {
    if !trace_enabled() {
        return SpanGuard { active: None };
    }
    SpanGuard::open(name, Level::Fine, None)
}

/// Opens a coarse-level span with an explicit parent (possibly none),
/// for work that crossed a thread boundary.
#[inline]
pub fn span_child_of(name: &str, parent: Option<u64>) -> SpanGuard {
    if !trace_enabled() {
        return SpanGuard { active: None };
    }
    SpanGuard::open(name, Level::Coarse, Some(parent))
}

/// What [`init_from_env`] found in the environment.
#[derive(Debug, Clone, Default)]
pub struct EnvConfig {
    /// Path to write the metrics snapshot to at campaign end, when
    /// `DSO_METRICS` names a file (any value other than `1`/`true`).
    pub metrics_path: Option<PathBuf>,
}

/// Applies the observability environment variables:
///
/// * `DSO_TRACE=<path>` — open a JSONL trace sink at `<path>` (no-op if a
///   sink is already open, so repeated campaigns append to one trace).
/// * `DSO_TRACE_LEVEL=fine|coarse` — span verbosity (default coarse).
/// * `DSO_METRICS=<path>|1` — enable the metrics registry; a path value
///   asks the campaign layer to write the JSON snapshot there.
///
/// Called when a session is built from the environment and at every
/// plane campaign's entry; safe to call repeatedly.
pub fn init_from_env() -> EnvConfig {
    let mut cfg = EnvConfig::default();
    if let Ok(value) = std::env::var("DSO_METRICS") {
        if !value.is_empty() {
            crate::set_metrics_enabled(true);
            if value != "1" && !value.eq_ignore_ascii_case("true") {
                cfg.metrics_path = Some(PathBuf::from(value));
            }
        }
    }
    if !trace_enabled() {
        if let Ok(path) = std::env::var("DSO_TRACE") {
            if !path.is_empty() {
                let level = match std::env::var("DSO_TRACE_LEVEL") {
                    Ok(v) if v.eq_ignore_ascii_case("fine") => Level::Fine,
                    _ => Level::Coarse,
                };
                if let Err(err) = trace_to_file(Path::new(&path), level) {
                    eprintln!("dso-obs: cannot open DSO_TRACE={path}: {err}");
                }
            }
        }
    }
    cfg
}
