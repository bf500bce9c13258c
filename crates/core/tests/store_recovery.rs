//! Property-style recovery contract of the persistent result store:
//! *opening never aborts*, whatever the file holds. A store truncated at
//! every possible byte offset of its final record, or corrupted at random
//! positions, must still open, must keep every undamaged record
//! bit-intact, and must count what it dropped. A store written under an
//! older request schema, or by a solver of another numerics revision,
//! drops its records at open and re-simulates.

use dso_core::store::{ResultStore, StoredResult};
use dso_core::SimValue;
use dso_num::testing::TestRng;
use dso_spice::recovery::RecoveryStats;
use std::path::PathBuf;

const CONTEXT: u64 = 0x5eed_cafe;

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dso-store-prop-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// A deterministic record whose payload exercises every value shape and
/// carries seed-dependent f64 bits worth checking for bit-identity.
fn record(rng: &mut TestRng, i: u64) -> StoredResult {
    let value = match i % 4 {
        0 => SimValue::Scalar(rng.range(-2.0, 2.0)),
        1 => SimValue::Series(rng.vec(1 + (i as usize % 5), 0.0, 1.8)),
        3 => SimValue::Reads((0..4).map(|_| rng.next_bool()).collect()),
        _ => SimValue::Outcomes {
            vc_ends: rng.vec(3, 0.0, 1.8),
            reads: (0..4)
                .map(|_| match rng.index(3) {
                    0 => None,
                    1 => Some(false),
                    _ => Some(true),
                })
                .collect(),
        },
    };
    let stats = RecoveryStats {
        solve_attempts: rng.index(100),
        newton_iters: rng.index(10_000),
        method_fallbacks: rng.index(5),
        subdivisions: rng.index(8),
        deepest_subdivision: rng.index(4),
        gmin_retries: rng.index(3),
        recovered_steps: rng.index(20),
        lu_refactors: rng.index(5_000),
        lu_reuses: rng.index(5_000),
        bypass_hits: rng.index(50_000),
        bypass_misses: rng.index(50_000),
    };
    StoredResult { value, stats }
}

/// Writes `n` seeded records through a store and returns the originals.
fn seed_store(path: &PathBuf, n: u64, seed: u64) -> Vec<StoredResult> {
    let store = ResultStore::open(path, CONTEXT).expect("open fresh store");
    let mut rng = TestRng::new(seed);
    let originals: Vec<StoredResult> = (0..n)
        .map(|i| {
            let r = record(&mut rng, i);
            store.put(i, &r.value, &r.stats);
            r
        })
        .collect();
    assert_eq!(store.stats().appends, n as usize, "all appends persisted");
    originals
}

#[test]
fn truncation_at_every_byte_offset_of_the_final_record_recovers() {
    let path = tmp_path("truncate-sweep");
    let originals = seed_store(&path, 4, 11);
    let full = std::fs::read(&path).expect("store bytes");

    // Length of the final record on disk = growth of the file when it was
    // appended; recompute from a 3-record prefix store.
    let prefix_path = tmp_path("truncate-prefix");
    seed_store(&prefix_path, 3, 11);
    let prefix_len = std::fs::metadata(&prefix_path).expect("prefix store").len() as usize;
    let _ = std::fs::remove_file(&prefix_path);
    assert!(prefix_len < full.len());

    // Cut the file at *every* byte offset inside the final record: from
    // "record 4 fully missing" up to "one byte short of complete".
    for cut in prefix_len..full.len() {
        std::fs::write(&path, &full[..cut]).expect("write truncated store");
        let store = ResultStore::open(&path, CONTEXT)
            .unwrap_or_else(|e| panic!("open must survive truncation at byte {cut}: {e}"));
        let stats = store.stats();
        assert_eq!(
            stats.records_loaded, 3,
            "cut at {cut}: the three complete records survive: {stats:?}"
        );
        if cut > prefix_len {
            assert!(
                stats.torn_tail_bytes > 0,
                "cut at {cut} leaves a torn tail: {stats:?}"
            );
        }
        for (i, original) in originals.iter().take(3).enumerate() {
            assert_eq!(
                store.get(i as u64).as_ref(),
                Some(original),
                "cut at {cut}: record {i} must replay bit-intact"
            );
        }
        assert!(store.get(3).is_none(), "cut at {cut}: torn record is gone");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn random_byte_corruption_never_aborts_and_spares_undamaged_records() {
    let path = tmp_path("corrupt-random");
    let n = 6u64;
    let originals = seed_store(&path, n, 23);
    let full = std::fs::read(&path).expect("store bytes");
    let mut rng = TestRng::new(97);

    for trial in 0..50 {
        // Corrupt 1–4 random bytes (bit flips and byte rewrites).
        let mut bytes = full.clone();
        for _ in 0..rng.index_range(1, 5) {
            let at = rng.index(bytes.len());
            let flip = if rng.next_bool() {
                1u8 << rng.index(8)
            } else {
                rng.next_u64() as u8 | 1 // ensure the byte changes
            };
            bytes[at] ^= flip;
        }
        std::fs::write(&path, &bytes).expect("write corrupted store");

        let store = ResultStore::open(&path, CONTEXT)
            .unwrap_or_else(|e| panic!("trial {trial}: open must survive corruption: {e}"));
        let stats = store.stats();
        assert!(
            stats.records_loaded <= n as usize,
            "trial {trial}: {stats:?}"
        );
        // Whatever was dropped is accounted for, never silently ignored.
        if stats.records_loaded < n as usize {
            assert!(
                stats.recovered_anything(),
                "trial {trial}: dropped records must be counted: {stats:?}"
            );
        }
        // Every record the recovery DID keep must be bit-identical to its
        // original — a checksum pass implies an intact payload.
        for (i, original) in originals.iter().enumerate() {
            if let Some(kept) = store.get(i as u64) {
                assert_eq!(
                    &kept, original,
                    "trial {trial}: record {i} survived but with altered bits"
                );
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corruption_then_compaction_round_trips_the_survivors() {
    let path = tmp_path("compact-roundtrip");
    let originals = seed_store(&path, 5, 41);
    let mut bytes = std::fs::read(&path).expect("store bytes");
    // Stomp a 16-byte run in the middle of the file.
    let mid = bytes.len() / 2;
    let end = (mid + 16).min(bytes.len() - 1);
    for b in &mut bytes[mid..end] {
        *b = 0xaa;
    }
    std::fs::write(&path, &bytes).expect("write corrupted store");

    // First open recovers and compacts...
    let survivors: Vec<(u64, StoredResult)> = {
        let store = ResultStore::open(&path, CONTEXT).expect("recovering open");
        assert!(store.stats().recovered_anything());
        assert_eq!(store.stats().compactions, 1);
        (0..5u64)
            .filter_map(|i| store.get(i).map(|r| (i, r)))
            .collect()
    };
    assert!(
        !survivors.is_empty(),
        "mid-file damage must not drop everything"
    );

    // ...so the second open sees a clean file with exactly the survivors.
    let clean = ResultStore::open(&path, CONTEXT).expect("clean reopen");
    let stats = clean.stats();
    assert!(!stats.recovered_anything(), "{stats:?}");
    assert_eq!(stats.records_loaded, survivors.len());
    for (key, survivor) in &survivors {
        assert_eq!(clean.get(*key).as_ref(), Some(survivor));
        assert_eq!(&originals[*key as usize], survivor);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn records_from_before_the_request_schema_compact_away_and_re_simulate() {
    use dso_core::analysis::Analyzer;
    use dso_core::{EvalService, SimRequest};
    use dso_defects::{BitLineSide, Defect};
    use dso_dram::design::{ColumnDesign, OperatingPoint};
    use dso_num::fingerprint::Fingerprint;

    let analyzer = Analyzer::new(ColumnDesign {
        dt_fraction: 1.0 / 250.0,
        ..ColumnDesign::default()
    });
    // The context stores were keyed by before the request schema was
    // folded in: column design and recovery policy only.
    let pre_schema = {
        let mut fp = Fingerprint::new();
        analyzer.design().fingerprint_into(&mut fp);
        analyzer.recovery().fingerprint_into(&mut fp);
        fp.finish()
    };
    let context = EvalService::context_for(&analyzer);
    assert_ne!(pre_schema, context);

    let request = SimRequest::write_end(
        &Defect::cell_open(BitLineSide::True),
        1e5,
        &OperatingPoint::nominal(),
        false,
    );
    let path = tmp_path("pre-schema");
    // The old store holds the request under its old key, and under the
    // key the current context looks up: a record's context, not its key,
    // decides whether it survives.
    {
        let old = ResultStore::open(&path, pre_schema).expect("open old store");
        let stale = SimValue::Scalar(-1.0);
        old.put(
            request.content_key(pre_schema),
            &stale,
            &RecoveryStats::default(),
        );
        old.put(
            request.content_key(context),
            &stale,
            &RecoveryStats::default(),
        );
    }

    // Opening for the current context drops both records and rewrites the
    // file without them.
    let store = ResultStore::open(&path, context).expect("open under the schema");
    let stats = store.stats();
    assert_eq!(stats.stale_skipped, 2, "{stats:?}");
    assert_eq!(stats.records_loaded, 0, "{stats:?}");
    assert_eq!(stats.compactions, 1, "{stats:?}");
    assert!(store.is_empty());

    // The request is simulated again, not served from the old bits.
    let service = EvalService::with_store(analyzer, store).expect("context matches");
    let value = service.eval(&request).expect("simulates");
    assert_ne!(value, SimValue::Scalar(-1.0));
    assert_eq!(service.cache_stats().misses, 1);
    assert_eq!(service.cache_stats().disk_hits, 0);
    drop(service);

    let reopened = ResultStore::open(&path, context).expect("clean reopen");
    let stats = reopened.stats();
    assert_eq!(stats.stale_skipped, 0, "{stats:?}");
    assert_eq!(stats.records_loaded, 1, "{stats:?}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn records_from_another_solver_revision_compact_away_and_re_simulate() {
    use dso_core::analysis::Analyzer;
    use dso_core::{EvalService, SimRequest};
    use dso_defects::{BitLineSide, Defect};
    use dso_dram::design::{ColumnDesign, OperatingPoint};
    use dso_num::fingerprint::Fingerprint;

    let analyzer = Analyzer::new(ColumnDesign {
        dt_fraction: 1.0 / 250.0,
        ..ColumnDesign::default()
    });
    // The context a store is keyed by, under a given numerics revision
    // (`None`: before the revision was folded in). The request schema is
    // 1.
    let keyed = |revision: Option<u64>| {
        let mut fp = Fingerprint::new();
        analyzer.design().fingerprint_into(&mut fp);
        analyzer.recovery().fingerprint_into(&mut fp);
        fp.write_u64(1);
        if let Some(revision) = revision {
            fp.write_u64(revision);
        }
        fp.finish()
    };
    let context = EvalService::context_for(&analyzer);
    assert_eq!(keyed(Some(dso_spice::NUMERICS)), context);
    let older = [keyed(None), keyed(Some(dso_spice::NUMERICS - 1))];
    assert!(older.iter().all(|&old| old != context));

    let request = SimRequest::write_end(
        &Defect::cell_open(BitLineSide::True),
        1e5,
        &OperatingPoint::nominal(),
        false,
    );
    let stale = SimValue::Scalar(-1.0);
    for (k, old) in older.into_iter().enumerate() {
        let path = tmp_path(&format!("older-numerics-{k}"));
        // The older solver's store holds the request under its own key
        // and under the key the current context looks up.
        {
            let store = ResultStore::open(&path, old).expect("open old store");
            store.put(request.content_key(old), &stale, &RecoveryStats::default());
            store.put(
                request.content_key(context),
                &stale,
                &RecoveryStats::default(),
            );
        }

        // Opening for the current context drops both records and rewrites
        // the file without them.
        let store = ResultStore::open(&path, context).expect("open under this revision");
        let stats = store.stats();
        assert_eq!(stats.stale_skipped, 2, "{k}: {stats:?}");
        assert_eq!(stats.records_loaded, 0, "{k}: {stats:?}");
        assert_eq!(stats.compactions, 1, "{k}: {stats:?}");
        assert!(store.is_empty());

        // The request is simulated again, not served from the old bits.
        let service = EvalService::with_store(analyzer.clone(), store).expect("context matches");
        let value = service.eval(&request).expect("simulates");
        assert_ne!(value, stale);
        assert_eq!(service.cache_stats().misses, 1);
        assert_eq!(service.cache_stats().disk_hits, 0);
        drop(service);

        let reopened = ResultStore::open(&path, context).expect("clean reopen");
        let stats = reopened.stats();
        assert_eq!(stats.stale_skipped, 0, "{k}: {stats:?}");
        assert_eq!(stats.records_loaded, 1, "{k}: {stats:?}");
        let _ = std::fs::remove_file(&path);
    }
}
