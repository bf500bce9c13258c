//! Crash-safe persistent result store: the disk tier under
//! [`crate::eval::EvalService`].
//!
//! A multi-hour stress-characterization campaign is a batch job; whether
//! it *completes* is decided by durability and restartability, not by raw
//! speed. The memo cache of the evaluation service dies with the process,
//! so this module persists every successful `(content_key, SimValue,
//! RecoveryStats)` evaluation to an append-only file. A campaign killed
//! mid-run and restarted against the same store replays its completed
//! points bit-identically from disk and recomputes only what is missing.
//!
//! # File format
//!
//! The store is a flat sequence of self-delimiting records (no file
//! header — every record carries everything needed to validate it):
//!
//! ```text
//! ┌──────────┬──────────┬───────────┬───────────────────┐
//! │ magic u32│ len  u32 │ crc   u64 │ payload (len B)   │
//! │ "DSR1"   │ LE       │ FNV-1a LE │                   │
//! └──────────┴──────────┴───────────┴───────────────────┘
//! payload := context u64 · content_key u64 · SimValue · RecoveryStats
//! ```
//!
//! Scalars use the fixed-width little-endian codec of [`dso_obs::codec`];
//! `f64`s are stored by exact bit pattern, so a replayed value is the
//! bits the first execution produced.
//!
//! # Crash consistency
//!
//! Appends are a single `write_all` of a complete record through an
//! `O_APPEND` handle guarded by a process-wide mutex, so records from one
//! process never interleave. A crash mid-append leaves at most one torn
//! record at the *tail* of the file — the only region an append ever
//! touches — and recovery on the next open drops exactly that tail.
//!
//! # Recovery semantics
//!
//! [`ResultStore::open`] never refuses a damaged file. The scan validates
//! each record's magic, length plausibility, and checksum; anything
//! invalid is skipped and *counted* ([`StoreStats`]), resynchronizing on
//! the next record magic. Records whose context fingerprint differs from
//! the opening service's (a changed design, model, or recovery policy)
//! are stale generations: skipped, counted, and dropped by the automatic
//! compaction that rewrites the file (atomically, via temp file + rename)
//! whenever the scan had to discard anything.
//!
//! # Fault injection
//!
//! [`ResultStore::open_with_faults`] arms the I/O axis of a
//! [`FaultPlan`]: short writes (torn tails on demand), flush failures,
//! and read bit-flips, so the recovery paths above are testable without a
//! real `kill -9`.

use crate::eval::SimValue;
use crate::CoreError;
use dso_num::chaos::{FaultPlan, IoFaultKind};
use dso_num::fingerprint::Fingerprint;
use dso_obs::codec::{ByteReader, ByteWriter, CodecError};
use dso_spice::recovery::RecoveryStats;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Record magic: `b"DSR1"`. Bump the digit for incompatible layouts —
/// old-version records then fail the magic check and are dropped by
/// recovery like any other unreadable bytes.
const MAGIC: [u8; 4] = *b"DSR1";
/// Bytes before the payload: magic + length + checksum.
const RECORD_HEADER: usize = 4 + 4 + 8;
/// Upper bound on a plausible payload. A length field above this is
/// treated as corruption, not as a request to allocate gigabytes.
const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// FNV-1a over a byte slice, via the workspace's stable fingerprint
/// hasher (the checksum must be identical across runs and platforms).
fn checksum(bytes: &[u8]) -> u64 {
    let mut fp = Fingerprint::new();
    for &b in bytes {
        fp.write_u8(b);
    }
    fp.finish()
}

/// One stored evaluation: the value and the recovery accounting its
/// computation accrued (replayed on hits so resumed campaigns reproduce
/// their `PointStatus` bookkeeping).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredResult {
    /// The evaluated value.
    pub value: SimValue,
    /// Recovery counters of the original computation.
    pub stats: RecoveryStats,
}

/// Counters describing a store's lifetime since open, including what the
/// recovery scan found. Mirrored into `store.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Valid current-context records loaded at open.
    pub records_loaded: usize,
    /// Records skipped because their context fingerprint belongs to a
    /// different design/model/recovery generation.
    pub stale_skipped: usize,
    /// Records dropped for a failed checksum, implausible length, bad
    /// magic run, or undecodable payload.
    pub corrupt_skipped: usize,
    /// Trailing bytes discarded as an incomplete append (torn tail).
    pub torn_tail_bytes: usize,
    /// Records appended through this handle.
    pub appends: usize,
    /// Appends or flushes that failed (the store keeps serving; the
    /// record may be torn on disk and will be dropped by the next open).
    pub write_errors: usize,
    /// Lookups answered from the store.
    pub hits: usize,
    /// Lookups the store could not answer.
    pub misses: usize,
    /// Compactions performed (open-time cleanup rewrites).
    pub compactions: usize,
}

impl StoreStats {
    /// `true` when the recovery scan had to discard anything.
    pub fn recovered_anything(&self) -> bool {
        self.stale_skipped > 0 || self.corrupt_skipped > 0 || self.torn_tail_bytes > 0
    }
}

/// The append-only persistent result store. See the module docs for
/// format, crash-consistency, and recovery semantics.
///
/// The store is keyed by the owning service's context fingerprint; use
/// [`crate::eval::EvalService::context_for`] to derive it from an
/// analyzer. All methods take `&self`: the in-memory index and the append
/// handle are internally synchronized (single-writer discipline per
/// process).
pub struct ResultStore {
    path: PathBuf,
    context: u64,
    inner: Mutex<Inner>,
    faults: Option<FaultPlan>,
}

struct Inner {
    file: File,
    index: HashMap<u64, StoredResult>,
    stats: StoreStats,
}

impl std::fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStore")
            .field("path", &self.path)
            .field("context", &self.context)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ResultStore {
    /// Opens (creating if absent) the store at `path` for the given
    /// context fingerprint, recovering whatever the file holds. Corrupt
    /// or stale records are skipped and counted — never an error — and
    /// trigger an automatic compaction; only real I/O failures (missing
    /// parent directory, permissions) are surfaced.
    ///
    /// # Errors
    ///
    /// [`CoreError::Store`] when the file cannot be opened, read, or (for
    /// compaction) rewritten.
    pub fn open(path: impl AsRef<Path>, context: u64) -> Result<ResultStore, CoreError> {
        ResultStore::open_inner(path.as_ref(), context, None)
    }

    /// [`ResultStore::open`] with an armed I/O fault plan: each append
    /// consumes one I/O ordinal (short write / flush failure), and the
    /// open-time scan consumes one (read bit-flip).
    ///
    /// # Errors
    ///
    /// As [`ResultStore::open`].
    pub fn open_with_faults(
        path: impl AsRef<Path>,
        context: u64,
        faults: FaultPlan,
    ) -> Result<ResultStore, CoreError> {
        ResultStore::open_inner(path.as_ref(), context, Some(faults))
    }

    fn open_inner(
        path: &Path,
        context: u64,
        faults: Option<FaultPlan>,
    ) -> Result<ResultStore, CoreError> {
        let span = dso_obs::span("store.open");
        let store_err = |what: &str, e: std::io::Error| {
            CoreError::Store(format!("{what} {}: {e}", path.display()))
        };
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)
                    .map_err(|e| store_err("cannot read", e))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(store_err("cannot open", e)),
        }
        // A read bit-flip fault corrupts one mid-file bit before the scan
        // sees the bytes — the checksum must catch it.
        if let Some(plan) = &faults {
            if let Some(IoFaultKind::BitFlipRead) = plan.begin_io() {
                if !bytes.is_empty() {
                    let at = bytes.len() / 2;
                    bytes[at] ^= 0x01;
                }
            }
        }
        let (index, mut stats) = recover(&bytes, context);
        span.note("records", stats.records_loaded as f64);
        dso_obs::counter!("store.records_loaded").add(stats.records_loaded as u64);
        dso_obs::counter!("store.stale_skipped").add(stats.stale_skipped as u64);
        dso_obs::counter!("store.corrupt_skipped").add(stats.corrupt_skipped as u64);
        dso_obs::counter!("store.torn_tail_bytes").add(stats.torn_tail_bytes as u64);

        // Compaction: rewrite the file with only the surviving records of
        // the current context, atomically (temp + rename), whenever the
        // scan discarded anything. Stale generations and torn tails are
        // dropped exactly once instead of being re-skipped forever.
        if stats.recovered_anything() {
            let mut w = ByteWriter::new();
            for (&key, result) in &index {
                append_record(&mut w, context, key, result);
            }
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, w.as_bytes())
                .map_err(|e| store_err("cannot write compaction temp for", e))?;
            std::fs::rename(&tmp, path).map_err(|e| store_err("cannot compact", e))?;
            stats.compactions += 1;
            dso_obs::counter!("store.compactions").incr();
        }

        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| store_err("cannot open for append", e))?;
        Ok(ResultStore {
            path: path.to_path_buf(),
            context,
            inner: Mutex::new(Inner { file, index, stats }),
            faults,
        })
    }

    /// The file backing this store.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The context fingerprint this store was opened for.
    pub fn context(&self) -> u64 {
        self.context
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> StoreStats {
        self.lock().stats
    }

    /// Records currently indexed.
    pub fn len(&self) -> usize {
        self.lock().index.len()
    }

    /// `true` when no record is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned store must not take the campaign down with it: the
        // index and stats are plain data, safe to keep serving.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up a stored result by content key.
    pub fn get(&self, content_key: u64) -> Option<StoredResult> {
        let mut inner = self.lock();
        let found = inner.index.get(&content_key).cloned();
        if found.is_some() {
            inner.stats.hits += 1;
            dso_obs::counter!("store.hits").incr();
        } else {
            inner.stats.misses += 1;
            dso_obs::counter!("store.misses").incr();
        }
        found
    }

    /// Appends one result durably and indexes it. Write failures are
    /// *absorbed*: counted in [`StoreStats::write_errors`] (and
    /// `store.write_errors`), the result stays served from memory, and a
    /// torn on-disk record is dropped by the next open's recovery. A
    /// campaign must never die because its cache could not persist.
    pub fn put(&self, content_key: u64, value: &SimValue, stats: &RecoveryStats) {
        let result = StoredResult {
            value: value.clone(),
            stats: *stats,
        };
        let mut w = ByteWriter::new();
        append_record(&mut w, self.context, content_key, &result);
        let bytes = w.as_bytes();
        let fault = self.faults.as_ref().and_then(|p| p.begin_io());
        let mut inner = self.lock();
        let write_outcome = match fault {
            Some(IoFaultKind::ShortWrite) => {
                // Persist only a prefix — the torn tail a mid-write kill
                // leaves — then report the failure.
                let _ = inner.file.write_all(&bytes[..bytes.len() / 2]);
                let _ = inner.file.flush();
                Err(std::io::Error::other("injected short write"))
            }
            Some(IoFaultKind::FlushFail) => inner
                .file
                .write_all(bytes)
                .and(Err(std::io::Error::other("injected flush failure"))),
            _ => inner
                .file
                .write_all(bytes)
                .and_then(|()| inner.file.flush()),
        };
        match write_outcome {
            Ok(()) => {
                inner.stats.appends += 1;
                dso_obs::counter!("store.appends").incr();
            }
            Err(e) => {
                inner.stats.write_errors += 1;
                dso_obs::counter!("store.write_errors").incr();
                warn_once_write_error(&self.path, &e);
            }
        }
        inner.index.insert(content_key, result);
    }
}

fn warn_once_write_error(path: &Path, e: &std::io::Error) {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        eprintln!(
            "warning: result store {} append failed ({e}); continuing without \
             durability for the affected record(s)",
            path.display()
        );
    });
}

/// Serializes one record (header + payload) into `w`.
fn append_record(w: &mut ByteWriter, context: u64, content_key: u64, result: &StoredResult) {
    let mut payload = ByteWriter::new();
    payload.put_u64(context);
    payload.put_u64(content_key);
    encode_value(&mut payload, &result.value);
    encode_stats(&mut payload, &result.stats);
    let payload = payload.into_bytes();
    w.put_bytes(&MAGIC);
    w.put_u32(payload.len() as u32);
    w.put_u64(checksum(&payload));
    w.put_bytes(&payload);
}

fn encode_value(w: &mut ByteWriter, value: &SimValue) {
    match value {
        SimValue::Series(vcs) => {
            w.put_u8(0);
            w.put_f64_slice(vcs);
        }
        SimValue::Outcomes { vc_ends, reads } => {
            w.put_u8(1);
            w.put_f64_slice(vc_ends);
            w.put_u32(reads.len() as u32);
            for r in reads {
                // 0 = no outcome, 1 = read low, 2 = read high; any other
                // byte is corruption and must fail the decode.
                w.put_u8(match r {
                    None => 0,
                    Some(false) => 1,
                    Some(true) => 2,
                });
            }
        }
        SimValue::Scalar(v) => {
            w.put_u8(2);
            w.put_f64(*v);
        }
        SimValue::Reads(reads) => {
            w.put_u8(3);
            w.put_u32(reads.len() as u32);
            for &r in reads {
                w.put_u8(u8::from(r));
            }
        }
    }
}

fn decode_value(r: &mut ByteReader<'_>) -> Result<SimValue, CodecError> {
    match r.u8()? {
        0 => Ok(SimValue::Series(r.f64_vec()?)),
        1 => {
            let vc_ends = r.f64_vec()?;
            let reads = decode_reads(r, |byte| match byte {
                0 => Some(None),
                1 => Some(Some(false)),
                2 => Some(Some(true)),
                _ => None,
            })?;
            Ok(SimValue::Outcomes { vc_ends, reads })
        }
        2 => Ok(SimValue::Scalar(r.f64()?)),
        3 => Ok(SimValue::Reads(decode_reads(r, |byte| match byte {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        })?)),
        _ => Err(CodecError {
            expected: "value tag",
            offset: r.position().saturating_sub(1),
        }),
    }
}

/// A length-prefixed run of read-outcome bytes; a byte `outcome` maps to
/// `None` is corruption and fails the decode.
fn decode_reads<T>(
    r: &mut ByteReader<'_>,
    outcome: impl Fn(u8) -> Option<T>,
) -> Result<Vec<T>, CodecError> {
    let start = r.position();
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(CodecError {
            expected: "reads length",
            offset: start,
        });
    }
    (0..n)
        .map(|_| {
            let at = r.position();
            outcome(r.u8()?).ok_or(CodecError {
                expected: "read outcome",
                offset: at,
            })
        })
        .collect()
}

fn encode_stats(w: &mut ByteWriter, s: &RecoveryStats) {
    w.put_usize(s.solve_attempts);
    w.put_usize(s.newton_iters);
    w.put_usize(s.method_fallbacks);
    w.put_usize(s.subdivisions);
    w.put_usize(s.deepest_subdivision);
    w.put_usize(s.gmin_retries);
    w.put_usize(s.recovered_steps);
    w.put_usize(s.lu_refactors);
    w.put_usize(s.lu_reuses);
    w.put_usize(s.bypass_hits);
    w.put_usize(s.bypass_misses);
}

fn decode_stats(r: &mut ByteReader<'_>) -> Result<RecoveryStats, CodecError> {
    Ok(RecoveryStats {
        solve_attempts: r.usize()?,
        newton_iters: r.usize()?,
        method_fallbacks: r.usize()?,
        subdivisions: r.usize()?,
        deepest_subdivision: r.usize()?,
        gmin_retries: r.usize()?,
        recovered_steps: r.usize()?,
        lu_refactors: r.usize()?,
        lu_reuses: r.usize()?,
        bypass_hits: r.usize()?,
        bypass_misses: r.usize()?,
    })
}

/// Decodes one validated payload into `(context, key, result)`.
fn decode_payload(payload: &[u8]) -> Result<(u64, u64, StoredResult), CodecError> {
    let mut r = ByteReader::new(payload);
    let context = r.u64()?;
    let key = r.u64()?;
    let value = decode_value(&mut r)?;
    let stats = decode_stats(&mut r)?;
    if !r.is_exhausted() {
        return Err(CodecError {
            expected: "end of payload",
            offset: r.position(),
        });
    }
    Ok((context, key, StoredResult { value, stats }))
}

/// Finds the next offset at or after `from` where the record magic
/// occurs, or `bytes.len()` when there is none.
fn next_magic(bytes: &[u8], from: usize) -> usize {
    let mut pos = from;
    while pos + MAGIC.len() <= bytes.len() {
        if bytes[pos..pos + MAGIC.len()] == MAGIC {
            return pos;
        }
        pos += 1;
    }
    bytes.len()
}

/// The recovery scan: walks `bytes`, keeping every record that passes
/// magic, length, checksum, and decode for the given `context`. Invalid
/// regions are skipped with a resynchronizing scan for the next magic —
/// a damaged record never takes its neighbors down — and everything
/// skipped is counted. Later records win duplicate keys (append order is
/// chronological).
fn recover(bytes: &[u8], context: u64) -> (HashMap<u64, StoredResult>, StoreStats) {
    let mut index = HashMap::new();
    let mut stats = StoreStats::default();
    let mut pos = 0;
    // End offset of the last structurally complete record (valid or
    // skipped-in-full); everything between here and EOF at loop exit is a
    // torn tail.
    let mut consumed = 0;
    while pos + RECORD_HEADER <= bytes.len() {
        if bytes[pos..pos + MAGIC.len()] != MAGIC {
            stats.corrupt_skipped += 1;
            pos = next_magic(bytes, pos + 1);
            continue;
        }
        let mut header = ByteReader::new(&bytes[pos + MAGIC.len()..pos + RECORD_HEADER]);
        let (len, crc) = match (header.u32(), header.u64()) {
            (Ok(len), Ok(crc)) => (len, crc),
            _ => unreachable!("header bounds checked above"),
        };
        if len > MAX_PAYLOAD {
            // An implausible length is corruption in the length field
            // itself; resync right after this magic.
            stats.corrupt_skipped += 1;
            pos = next_magic(bytes, pos + MAGIC.len());
            continue;
        }
        let end = pos + RECORD_HEADER + len as usize;
        if end > bytes.len() {
            // Runs past EOF: a torn tail if nothing follows, otherwise a
            // corrupt length field mid-file.
            let resync = next_magic(bytes, pos + MAGIC.len());
            if resync >= bytes.len() {
                break; // counted as torn tail below
            }
            stats.corrupt_skipped += 1;
            pos = resync;
            continue;
        }
        let payload = &bytes[pos + RECORD_HEADER..end];
        if checksum(payload) != crc {
            stats.corrupt_skipped += 1;
            pos = next_magic(bytes, pos + MAGIC.len());
            continue;
        }
        match decode_payload(payload) {
            Ok((ctx, key, result)) => {
                if ctx == context {
                    stats.records_loaded += 1;
                    index.insert(key, result);
                } else {
                    stats.stale_skipped += 1;
                }
                pos = end;
                consumed = end;
            }
            Err(_) => {
                stats.corrupt_skipped += 1;
                pos = next_magic(bytes, pos + MAGIC.len());
            }
        }
    }
    stats.torn_tail_bytes = bytes.len().saturating_sub(consumed.max(pos));
    (index, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dso_num::chaos::FaultPlan;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dso-store-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample(i: u64) -> StoredResult {
        StoredResult {
            value: match i % 4 {
                0 => SimValue::Scalar(1.5 + i as f64),
                1 => SimValue::Series(vec![0.1 * i as f64, -0.0, f64::MIN_POSITIVE]),
                2 => SimValue::Outcomes {
                    vc_ends: vec![1.0, 2.0],
                    reads: vec![None, Some(true), Some(false)],
                },
                _ => SimValue::Reads(vec![true, false, true]),
            },
            stats: RecoveryStats {
                solve_attempts: i as usize,
                newton_iters: 10 * i as usize,
                ..RecoveryStats::default()
            },
        }
    }

    #[test]
    fn round_trips_all_value_shapes() {
        let path = tmp_path("roundtrip");
        let store = ResultStore::open(&path, 7).unwrap();
        for i in 0..6u64 {
            let s = sample(i);
            store.put(i, &s.value, &s.stats);
        }
        assert_eq!(store.len(), 6);
        drop(store);

        let reopened = ResultStore::open(&path, 7).unwrap();
        let stats = reopened.stats();
        assert_eq!(stats.records_loaded, 6);
        assert!(!stats.recovered_anything(), "{stats:?}");
        for i in 0..6u64 {
            assert_eq!(reopened.get(i).unwrap(), sample(i), "record {i}");
        }
        assert!(reopened.get(99).is_none());
        let stats = reopened.stats();
        assert_eq!((stats.hits, stats.misses), (6, 1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_contexts_are_skipped_and_compacted_away() {
        let path = tmp_path("stale");
        let old = ResultStore::open(&path, 1).unwrap();
        let s = sample(0);
        old.put(10, &s.value, &s.stats);
        old.put(11, &s.value, &s.stats);
        drop(old);

        // A new generation: old records are stale, the file is compacted.
        let new = ResultStore::open(&path, 2).unwrap();
        assert_eq!(new.stats().stale_skipped, 2);
        assert_eq!(new.stats().compactions, 1);
        assert!(new.is_empty());
        let s2 = sample(1);
        new.put(20, &s2.value, &s2.stats);
        drop(new);

        // The stale generation is gone from disk: reopening under the old
        // context finds nothing of it.
        let back = ResultStore::open(&path, 1).unwrap();
        assert_eq!(back.stats().records_loaded, 0);
        assert_eq!(back.stats().stale_skipped, 1); // only the new record
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_and_earlier_records_survive() {
        let path = tmp_path("torn");
        let store = ResultStore::open(&path, 3).unwrap();
        for i in 0..4u64 {
            let s = sample(i);
            store.put(i, &s.value, &s.stats);
        }
        drop(store);
        // Tear the tail: chop half of the final record off.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();

        let recovered = ResultStore::open(&path, 3).unwrap();
        let stats = recovered.stats();
        assert_eq!(stats.records_loaded, 3, "{stats:?}");
        assert!(stats.torn_tail_bytes > 0, "{stats:?}");
        assert_eq!(stats.compactions, 1);
        for i in 0..3u64 {
            assert_eq!(recovered.get(i).unwrap(), sample(i));
        }
        assert!(recovered.get(3).is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_file_corruption_skips_only_the_damaged_record() {
        let path = tmp_path("midfile");
        let store = ResultStore::open(&path, 3).unwrap();
        let ends: Vec<usize> = (0..4u64)
            .map(|i| {
                let s = sample(i);
                store.put(i, &s.value, &s.stats);
                std::fs::metadata(&path).unwrap().len() as usize
            })
            .collect();
        drop(store);
        // Flip a byte inside record #1's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = ends[0] + RECORD_HEADER + 3;
        bytes[target] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let recovered = ResultStore::open(&path, 3).unwrap();
        let stats = recovered.stats();
        assert_eq!(stats.records_loaded, 3, "{stats:?}");
        assert_eq!(stats.corrupt_skipped, 1, "{stats:?}");
        assert!(recovered.get(1).is_none());
        for i in [0u64, 2, 3] {
            assert_eq!(recovered.get(i).unwrap(), sample(i), "record {i}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn short_write_fault_tears_the_tail_for_the_next_open() {
        let path = tmp_path("shortwrite");
        let plan = FaultPlan::new().inject_io_at(2, IoFaultKind::ShortWrite);
        let store = ResultStore::open_with_faults(&path, 5, plan).unwrap();
        // Ordinal 0 is consumed by the open-time read arm.
        let a = sample(0);
        store.put(0, &a.value, &a.stats); // io ordinal 1: clean
        let b = sample(1);
        store.put(1, &b.value, &b.stats); // io ordinal 2: short write
        let stats = store.stats();
        assert_eq!(stats.appends, 1, "{stats:?}");
        assert_eq!(stats.write_errors, 1, "{stats:?}");
        // The memory index still serves the unpersisted record.
        assert!(store.get(1).is_some());
        drop(store);

        let recovered = ResultStore::open(&path, 5).unwrap();
        let stats = recovered.stats();
        assert_eq!(stats.records_loaded, 1, "{stats:?}");
        assert!(stats.torn_tail_bytes > 0, "{stats:?}");
        assert!(recovered.get(1).is_none());
        assert_eq!(recovered.get(0).unwrap(), a);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flush_fail_fault_counts_but_keeps_serving() {
        let path = tmp_path("flushfail");
        let plan = FaultPlan::io_always(IoFaultKind::FlushFail);
        let store = ResultStore::open_with_faults(&path, 5, plan).unwrap();
        let a = sample(2);
        store.put(0, &a.value, &a.stats);
        assert_eq!(store.stats().write_errors, 1);
        assert_eq!(store.get(0).unwrap(), a);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flip_read_fault_is_caught_by_the_checksum() {
        let path = tmp_path("bitflip");
        let store = ResultStore::open(&path, 5).unwrap();
        for i in 0..3u64 {
            let s = sample(i);
            store.put(i, &s.value, &s.stats);
        }
        drop(store);

        let plan = FaultPlan::new().inject_io_at(0, IoFaultKind::BitFlipRead);
        let flipped = ResultStore::open_with_faults(&path, 5, plan).unwrap();
        let stats = flipped.stats();
        assert_eq!(
            stats.corrupt_skipped, 1,
            "the flipped record must fail its checksum: {stats:?}"
        );
        assert_eq!(stats.records_loaded, 2, "{stats:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_and_garbage_files_open_cleanly() {
        let path = tmp_path("garbage");
        std::fs::write(&path, b"not a store at all, definitely").unwrap();
        let store = ResultStore::open(&path, 1).unwrap();
        assert!(store.is_empty());
        assert!(store.stats().recovered_anything());
        drop(store);
        // After compaction the file is clean.
        let clean = ResultStore::open(&path, 1).unwrap();
        assert!(!clean.stats().recovered_anything());
        let _ = std::fs::remove_file(&path);

        let path2 = tmp_path("empty");
        std::fs::write(&path2, b"").unwrap();
        let store = ResultStore::open(&path2, 1).unwrap();
        assert!(store.is_empty());
        assert!(!store.stats().recovered_anything());
        let _ = std::fs::remove_file(&path2);
    }

    #[test]
    fn open_error_paths_surface_store_errors() {
        let missing_dir = std::env::temp_dir().join("dso-no-such-dir-xyz/store.bin");
        let err = ResultStore::open(&missing_dir, 1).unwrap_err();
        assert!(matches!(err, CoreError::Store(_)), "{err}");
        assert!(err.to_string().contains("result store"), "{err}");
    }
}
