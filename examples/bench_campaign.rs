//! Offline campaign benchmark: times plane-sweep campaigns through the
//! [`Session`] API serial vs parallel, checks the determinism contract
//! (parallel output bit-identical to serial), verifies the warm-start
//! payoff, the evaluation-cache payoff (a cached repeat campaign must be
//! at least 5x faster than its cold run, with identical bits), and writes
//! `BENCH_campaign.json` (schema per record:
//! `{name, threads, wall_ms, points, newton_iters, cache_hit_rate,
//! disk_hit_rate, lu_reuse_rate, bypass_hit_rate, dedup_waits,
//! serve_p99_ms, cross_design_dedup_rate}`). A disk-resume scenario
//! additionally replays the campaign from a persistent [`ResultStore`] on
//! a fresh service and gates on bit-identity and a full disk hit rate, a
//! service scenario runs interactive queries against an embedded daemon
//! busy with a bulk campaign, feeding the interactive p99 into the
//! baseline, and a design-sweep scenario runs three declarative designs
//! (two expanding to one electrical plan) in one pass, feeding the
//! deterministic cross-design dedup rate into the baseline.
//!
//! Run in release mode — debug-mode timings are meaningless:
//!
//! ```text
//! cargo run --release --example bench_campaign
//! ```
//!
//! The parallel speedup scales with available cores (the executor shards
//! the sweep grid across `DSO_THREADS` workers); on a single-core host the
//! parallel scenarios still run — and must still produce identical bits —
//! but wall-clock parity is all that can be observed. The process exits
//! non-zero if parallel output diverges from serial, the warm-start
//! iteration saving falls below 20%, the cached repeat campaign is less
//! than 5x faster than (or diverges from) its cold run, the cold serial
//! campaign reuses fewer than half its LU factorizations, or a derived
//! figure regresses more than 25% against the committed
//! `BENCH_baseline.json` (refresh an intentional change with
//! `cargo run --release --example bench_campaign -- --write-baseline`).

use dram_stress_opt::analysis::{Analyzer, DesignSpace, DesignSweepRequest, PlaneCampaign};
use dram_stress_opt::bench::{effective_cores, median_of, to_json, BenchBaseline, BenchRecord};
use dram_stress_opt::eval::EvalService;
use dram_stress_opt::exec::CampaignConfig;
use dram_stress_opt::service::{
    percentile, Daemon, JobKind, JobRequest, Priority, ReplySink, ServeConfig,
};
use dram_stress_opt::store::ResultStore;
use dram_stress_opt::Session;
use dso_defects::{BitLineSide, Defect};
use dso_dram::column::DefectSite;
use dso_dram::design::{ColumnDesign, DesignConfig, OperatingPoint, ReferenceScheme};
use dso_num::interp::logspace;

const REPEATS: usize = 3;
const R_POINTS: usize = 30;
const N_OPS: usize = 2;
const BASELINE_PATH: &str = "BENCH_baseline.json";
const BASELINE_TOLERANCE: f64 = 0.25;

fn main() {
    // Coarser time base than the production default keeps the bench
    // affordable while exercising the identical hot path.
    let design = ColumnDesign {
        dt_fraction: 1.0 / 250.0,
        ..ColumnDesign::default()
    };
    let analyzer = Analyzer::new(design);
    let defect = Defect::cell_open(BitLineSide::True);
    let op = OperatingPoint::nominal();
    let r_values = logspace(1e4, 1e7, R_POINTS).expect("valid sweep");
    let mut records: Vec<BenchRecord> = Vec::new();

    // Every cold scenario gets a fresh session (fresh memo cache) so the
    // timing measures simulation, not cache replay.
    let fresh_session = |config: &CampaignConfig| {
        Session::from_parts(EvalService::new(analyzer.clone()), config.clone())
    };

    // --- result planes: warm-start payoff at threads = 1 ---------------
    let serial_cold = CampaignConfig::with_threads(1).with_warm_start(false);
    let serial_warm = CampaignConfig::with_threads(1);
    let planes = |config: &CampaignConfig| {
        fresh_session(config)
            .planes_strict(&defect, &op, &r_values, N_OPS)
            .expect("planes build")
    };
    let (cold_ms, (_, cold_perf)) = median_of(REPEATS, || planes(&serial_cold));
    records.push(BenchRecord {
        name: "result_planes/serial-cold".into(),
        threads: 1,
        wall_ms: cold_ms,
        points: cold_perf.points,
        newton_iters: cold_perf.newton_iters,
        cache_hit_rate: cold_perf.cache_hit_rate(),
        disk_hit_rate: cold_perf.disk_hit_rate(),
        lu_reuse_rate: cold_perf.lu_reuse_rate(),
        bypass_hit_rate: cold_perf.bypass_hit_rate(),
        dedup_waits: 0,
        serve_p99_ms: 0.0,
        cross_design_dedup_rate: 0.0,
    });
    let (warm_ms, (_, warm_perf)) = median_of(REPEATS, || planes(&serial_warm));
    records.push(BenchRecord {
        name: "result_planes/serial-warm".into(),
        threads: 1,
        wall_ms: warm_ms,
        points: warm_perf.points,
        newton_iters: warm_perf.newton_iters,
        cache_hit_rate: warm_perf.cache_hit_rate(),
        disk_hit_rate: warm_perf.disk_hit_rate(),
        lu_reuse_rate: warm_perf.lu_reuse_rate(),
        bypass_hit_rate: warm_perf.bypass_hit_rate(),
        dedup_waits: 0,
        serve_p99_ms: 0.0,
        cross_design_dedup_rate: 0.0,
    });
    let saved = 1.0 - warm_perf.newton_iters as f64 / cold_perf.newton_iters.max(1) as f64;
    println!(
        "warm start: {} -> {} Newton iterations ({:.1}% saved), {:.0} ms -> {:.0} ms",
        cold_perf.newton_iters,
        warm_perf.newton_iters,
        saved * 100.0,
        cold_ms,
        warm_ms
    );
    let mut failed = false;
    if saved < 0.20 {
        eprintln!("FAIL: warm start saved {:.1}% (< 20%)", saved * 100.0);
        failed = true;
    }
    // Modified Newton must keep most of its factorizations: a cold start
    // has no warm predictor to hide a reuse regression behind.
    if cold_perf.lu_reuse_rate() <= 0.5 {
        eprintln!(
            "FAIL: cold LU reuse rate {:.2} (<= 0.5)",
            cold_perf.lu_reuse_rate()
        );
        failed = true;
    }

    // --- plane campaign: serial vs parallel, bit-identity gate ----------
    let campaign = |config: &CampaignConfig| -> PlaneCampaign {
        fresh_session(config)
            .planes(&defect, &op, &r_values, N_OPS)
            .expect("campaign runs")
    };
    let serial_cfg = CampaignConfig::with_threads(1);
    let (serial_ms, serial) = median_of(REPEATS, || campaign(&serial_cfg));
    records.push(BenchRecord {
        name: "plane_campaign/serial".into(),
        threads: 1,
        wall_ms: serial_ms,
        points: serial.perf.points,
        newton_iters: serial.perf.newton_iters,
        cache_hit_rate: serial.perf.cache_hit_rate(),
        disk_hit_rate: serial.perf.disk_hit_rate(),
        lu_reuse_rate: serial.perf.lu_reuse_rate(),
        bypass_hit_rate: serial.perf.bypass_hit_rate(),
        dedup_waits: 0,
        serve_p99_ms: 0.0,
        cross_design_dedup_rate: 0.0,
    });
    let mut widest_speedup_per_core = f64::INFINITY;
    for threads in [2, 8] {
        let cfg = CampaignConfig::with_threads(threads);
        let (ms, parallel) = median_of(REPEATS, || campaign(&cfg));
        records.push(BenchRecord {
            name: format!("plane_campaign/parallel-{threads}"),
            threads,
            wall_ms: ms,
            points: parallel.perf.points,
            newton_iters: parallel.perf.newton_iters,
            cache_hit_rate: parallel.perf.cache_hit_rate(),
            disk_hit_rate: parallel.perf.disk_hit_rate(),
            lu_reuse_rate: parallel.perf.lu_reuse_rate(),
            bypass_hit_rate: parallel.perf.bypass_hit_rate(),
            dedup_waits: 0,
            serve_p99_ms: 0.0,
            cross_design_dedup_rate: 0.0,
        });
        let speedup = serial_ms / ms;
        widest_speedup_per_core = speedup / effective_cores(threads) as f64;
        println!(
            "plane_campaign x{threads}: {:.0} ms (serial {:.0} ms, speedup {:.2}x, \
             {:.2}x/core)",
            ms, serial_ms, speedup, widest_speedup_per_core
        );
        if parallel.planes != serial.planes
            || parallel.report != serial.report
            || parallel.gaps() != serial.gaps()
        {
            eprintln!("FAIL: parallel ({threads} threads) diverged from serial output");
            failed = true;
        }
    }

    let pps = |points: usize, ms: f64| points as f64 / (ms / 1e3).max(1e-9);

    // --- observability overhead: metrics registry on vs off -------------
    // The disabled fast path is a relaxed atomic load per site; with the
    // registry *enabled* the cost is a thread-local bump per event. Both
    // are timed so the overhead budget in DESIGN.md §7 stays honest.
    dso_obs::set_metrics_enabled(true);
    let (obs_ms, obs_run) = median_of(REPEATS, || campaign(&serial_cfg));
    dso_obs::set_metrics_enabled(false);
    records.push(BenchRecord {
        name: "plane_campaign/serial-metrics-on".into(),
        threads: 1,
        wall_ms: obs_ms,
        points: obs_run.perf.points,
        newton_iters: obs_run.perf.newton_iters,
        cache_hit_rate: obs_run.perf.cache_hit_rate(),
        disk_hit_rate: obs_run.perf.disk_hit_rate(),
        lu_reuse_rate: obs_run.perf.lu_reuse_rate(),
        bypass_hit_rate: obs_run.perf.bypass_hit_rate(),
        dedup_waits: 0,
        serve_p99_ms: 0.0,
        cross_design_dedup_rate: 0.0,
    });
    println!(
        "metrics enabled: {:.0} ms vs {:.0} ms disabled ({:+.1}%)",
        obs_ms,
        serial_ms,
        100.0 * (obs_ms / serial_ms - 1.0)
    );

    // --- eval cache: cold vs cached repeat on a shared session ----------
    // The first campaign on a fresh session simulates every point; the
    // repeats replay the memo cache. The repeat must be at least 5x
    // faster and bit-identical — the payoff the cache exists for.
    let shared_session = fresh_session(&serial_cfg);
    let run_shared = || {
        shared_session
            .planes(&defect, &op, &r_values, N_OPS)
            .expect("campaign runs")
    };
    let (shared_cold_ms, shared_cold) = median_of(1, run_shared);
    records.push(BenchRecord {
        name: "plane_campaign/shared-cold".into(),
        threads: 1,
        wall_ms: shared_cold_ms,
        points: shared_cold.perf.points,
        newton_iters: shared_cold.perf.newton_iters,
        cache_hit_rate: shared_cold.perf.cache_hit_rate(),
        disk_hit_rate: shared_cold.perf.disk_hit_rate(),
        lu_reuse_rate: shared_cold.perf.lu_reuse_rate(),
        bypass_hit_rate: shared_cold.perf.bypass_hit_rate(),
        dedup_waits: 0,
        serve_p99_ms: 0.0,
        cross_design_dedup_rate: 0.0,
    });
    let (cached_ms, cached) = median_of(REPEATS, run_shared);
    let cache_stats = shared_session.service().cache_stats();
    records.push(BenchRecord {
        name: "plane_campaign/shared-cached".into(),
        threads: 1,
        wall_ms: cached_ms,
        points: cached.perf.points,
        newton_iters: cached.perf.newton_iters,
        cache_hit_rate: cached.perf.cache_hit_rate(),
        disk_hit_rate: cached.perf.disk_hit_rate(),
        lu_reuse_rate: cached.perf.lu_reuse_rate(),
        bypass_hit_rate: cached.perf.bypass_hit_rate(),
        dedup_waits: cache_stats.dedup_waits as usize,
        serve_p99_ms: 0.0,
        cross_design_dedup_rate: 0.0,
    });
    let cache_speedup = shared_cold_ms / cached_ms.max(1e-6);
    println!(
        "eval cache: cold {:.0} ms -> cached {:.2} ms ({:.0}x, hit rate {:.0}%, \
         {} entries)",
        shared_cold_ms,
        cached_ms,
        cache_speedup,
        100.0 * cached.perf.cache_hit_rate(),
        cache_stats.entries
    );
    if cached.planes != shared_cold.planes
        || cached.report != shared_cold.report
        || cached.gaps() != shared_cold.gaps()
    {
        eprintln!("FAIL: cached repeat campaign diverged from its cold run");
        failed = true;
    }
    if cache_speedup < 5.0 {
        eprintln!("FAIL: cached repeat campaign only {cache_speedup:.1}x faster (< 5x)");
        failed = true;
    }
    if cached.perf.cache_misses != 0 {
        eprintln!(
            "FAIL: cached repeat re-simulated {} points",
            cached.perf.cache_misses
        );
        failed = true;
    }
    drop(shared_session);

    // --- persistent store: disk-resume replay on a fresh service ---------
    // A campaign persisted through the result store, then replayed by a
    // *fresh* service against the reopened store — the cold-restart path a
    // resumed campaign takes. Every request must come back from the disk
    // tier, bit-identical, with zero recomputation.
    let store_path =
        std::env::temp_dir().join(format!("dso-bench-store-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&store_path);
    let context = EvalService::context_for(&analyzer);
    let store = ResultStore::open(&store_path, context).expect("open bench store");
    let persist_session = Session::from_parts(
        EvalService::with_store(analyzer.clone(), store).expect("context matches"),
        serial_cfg.clone(),
    );
    let run_persisted = |session: &Session| {
        session
            .planes(&defect, &op, &r_values, N_OPS)
            .expect("campaign runs")
    };
    let (persist_ms, persisted) = median_of(1, || run_persisted(&persist_session));
    drop(persist_session);
    let store = ResultStore::open(&store_path, context).expect("reopen bench store");
    let resume_session = Session::from_parts(
        EvalService::with_store(analyzer.clone(), store).expect("context matches"),
        serial_cfg.clone(),
    );
    let (resume_ms, resumed) = median_of(1, || run_persisted(&resume_session));
    let store_stats = resume_session
        .service()
        .store()
        .expect("store attached")
        .stats();
    records.push(BenchRecord {
        name: "plane_campaign/disk-resume".into(),
        threads: 1,
        wall_ms: resume_ms,
        points: resumed.perf.points,
        newton_iters: resumed.perf.newton_iters,
        cache_hit_rate: resumed.perf.cache_hit_rate(),
        disk_hit_rate: resumed.perf.disk_hit_rate(),
        lu_reuse_rate: resumed.perf.lu_reuse_rate(),
        bypass_hit_rate: resumed.perf.bypass_hit_rate(),
        dedup_waits: 0,
        serve_p99_ms: 0.0,
        cross_design_dedup_rate: 0.0,
    });
    println!(
        "disk resume: persist {:.0} ms -> replay {:.2} ms ({} records on disk, \
         disk hit rate {:.0}%)",
        persist_ms,
        resume_ms,
        store_stats.records_loaded,
        100.0 * resumed.perf.disk_hit_rate()
    );
    if resumed.planes != persisted.planes
        || resumed.report != persisted.report
        || resumed.gaps() != persisted.gaps()
    {
        eprintln!("FAIL: disk-resume replay diverged from the persisted run");
        failed = true;
    }
    if resumed.perf.cache_misses != 0 {
        eprintln!(
            "FAIL: disk-resume replay re-simulated {} points",
            resumed.perf.cache_misses
        );
        failed = true;
    }
    if resumed.perf.disk_hits != resumed.perf.cache_hits {
        eprintln!(
            "FAIL: disk-resume replay served {} of {} hits from memory, not disk",
            resumed.perf.cache_hits - resumed.perf.disk_hits,
            resumed.perf.cache_hits
        );
        failed = true;
    }
    drop(resume_session);
    let _ = std::fs::remove_file(&store_path);

    // --- service daemon: interactive tail latency under a bulk load ------
    // A single-worker daemon picks up a bulk plane campaign, then serves
    // interactive queries (on *different* defects, so nothing is answered
    // from a shared cache) inline at its chunk boundaries — the same
    // chunk-granular preemption the serve drill replays. The interactive
    // p99 across admission-to-done is the one lower-is-better figure the
    // baseline gate tracks.
    let serve_session = Session::from_parts(
        EvalService::new(analyzer.clone()),
        CampaignConfig::with_threads(1).with_chunk(2),
    );
    let daemon = Daemon::start(
        serve_session,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let handle = daemon.handle();
    let sink: ReplySink = std::sync::Arc::new(|_reply| true);
    let submit = |id: &str, kind: JobKind, priority: Priority| {
        let request = JobRequest {
            id: id.into(),
            kind,
            priority,
            deadline_ms: None,
        };
        let control = handle.make_control(&request);
        handle.submit(request, control, std::sync::Arc::clone(&sink));
    };
    let serve_start = std::time::Instant::now();
    submit(
        "serve-bulk",
        JobKind::Campaign {
            defect,
            op,
            r_values: logspace(1e4, 1e8, 12).expect("valid sweep"),
            n_ops: N_OPS,
        },
        Priority::Bulk,
    );
    // Wait for the worker to pick the campaign up so every query below
    // measures the preempted path (admission -> chunk boundary -> inline
    // run), not an idle-daemon fast path that would skew the baseline.
    while handle.queue_depth() > 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let geo_mid = |d: &Defect| {
        let (lo, hi) = d.sweep_range();
        (lo * hi).sqrt()
    };
    let sg = Defect::new(DefectSite::Sg, BitLineSide::True);
    let sv = Defect::new(DefectSite::Sv, BitLineSide::True);
    let o1 = Defect::new(DefectSite::O1, BitLineSide::True);
    let o3c = Defect::cell_open(BitLineSide::Comp);
    submit(
        "serve-border-sg",
        JobKind::Border {
            defect: sg,
            op,
            settling: 2,
            rel_tol: 0.05,
        },
        Priority::Interactive,
    );
    submit(
        "serve-border-o3c",
        JobKind::Border {
            defect: o3c,
            op,
            settling: 2,
            rel_tol: 0.05,
        },
        Priority::Interactive,
    );
    submit(
        "serve-detect-sv",
        JobKind::Detection {
            defect: sv,
            op,
            r_target: geo_mid(&sv),
            max_settling: 8,
        },
        Priority::Interactive,
    );
    submit(
        "serve-detect-o1",
        JobKind::Detection {
            defect: o1,
            op,
            r_target: geo_mid(&o1),
            max_settling: 8,
        },
        Priority::Interactive,
    );
    let serve_stats = daemon.shutdown();
    let serve_ms = serve_start.elapsed().as_secs_f64() * 1e3;
    let serve_p99_ms = percentile(&serve_stats.latency_interactive_ms, 0.99);
    records.push(BenchRecord {
        name: "serve/mixed-interactive".into(),
        threads: 1,
        wall_ms: serve_ms,
        points: serve_stats.completed as usize,
        newton_iters: 0,
        cache_hit_rate: 0.0,
        disk_hit_rate: 0.0,
        lu_reuse_rate: 0.0,
        bypass_hit_rate: 0.0,
        dedup_waits: 0,
        serve_p99_ms,
        cross_design_dedup_rate: 0.0,
    });
    println!(
        "service daemon: {} jobs in {:.0} ms, {} preemptions, interactive p50 {:.0} ms / \
         p99 {:.0} ms",
        serve_stats.completed,
        serve_ms,
        serve_stats.preemptions,
        percentile(&serve_stats.latency_interactive_ms, 0.50),
        serve_p99_ms
    );
    if serve_stats.completed != 5 || serve_stats.failed != 0 {
        eprintln!(
            "FAIL: service scenario completed {} of 5 jobs ({} failed)",
            serve_stats.completed, serve_stats.failed
        );
        failed = true;
    }
    if serve_stats.preemptions == 0 {
        eprintln!("FAIL: no query was served by chunk-granular preemption");
        failed = true;
    }

    // --- design-space sweep: cross-design healthy-reference dedup --------
    // Three declarative designs, two of which expand to the same
    // electrical plan ("skewed" spells out the exact skew "dummy"
    // resolves to) and one genuinely different (two cells per bit line).
    // The shared plan's healthy-reference grid must dedup; the rate is a
    // deterministic count, so it feeds the baseline gate directly.
    let sweep_space = {
        let base = DesignConfig {
            name: "skewed".into(),
            dt_fraction: 1.0 / 250.0,
            ..DesignConfig::paper_default()
        };
        let skew = ReferenceScheme::DummyCell.resolve_skew(
            base.cell_cap,
            base.cells_per_bitline as f64 * base.bl_cap_per_cell,
        );
        let skewed = DesignConfig {
            reference: ReferenceScheme::SkewedRef { skew },
            ..base
        };
        let dummy = DesignConfig {
            name: "dummy".into(),
            reference: ReferenceScheme::DummyCell,
            ..skewed.clone()
        };
        let tall = DesignConfig {
            name: "tall".into(),
            cells_per_bitline: 2,
            ..skewed.clone()
        };
        DesignSpace::new(vec![skewed, dummy, tall]).expect("valid design space")
    };
    let sweep_request = DesignSweepRequest::new(vec![defect])
        .with_r_points(8)
        .with_n_ops(N_OPS);
    let sweep_session = fresh_session(&serial_cfg);
    let (sweep_ms, sweep) = median_of(1, || {
        sweep_session
            .design_sweep(&sweep_space, &sweep_request)
            .expect("design sweep runs")
    });
    let sweep_campaigns =
        (sweep_space.len() * sweep_request.defects.len() * sweep_request.op_points.len()) as f64;
    let cross_design_dedup_rate = sweep.cross_design_dedup() as f64 / sweep_campaigns;
    records.push(BenchRecord {
        name: "design_sweep/three-designs".into(),
        threads: 1,
        wall_ms: sweep_ms,
        points: sweep.perf.points,
        newton_iters: sweep.perf.newton_iters,
        cache_hit_rate: sweep.perf.cache_hit_rate(),
        disk_hit_rate: sweep.perf.disk_hit_rate(),
        lu_reuse_rate: sweep.perf.lu_reuse_rate(),
        bypass_hit_rate: sweep.perf.bypass_hit_rate(),
        dedup_waits: 0,
        serve_p99_ms: 0.0,
        cross_design_dedup_rate,
    });
    println!(
        "design sweep: {} designs ({} distinct plans) in {:.0} ms \
         ({:.2} points/s), {} cross-design reuse(s) ({:.0}% of campaigns)",
        sweep_space.len(),
        sweep.distinct_plans,
        sweep_ms,
        pps(sweep.perf.points, sweep_ms),
        sweep.cross_design_dedup(),
        100.0 * cross_design_dedup_rate
    );
    if sweep.cross_design_dedup() < 1 {
        eprintln!("FAIL: equal-plan designs shared no healthy-reference grid");
        failed = true;
    }
    if sweep.designs.len() != sweep_space.len() {
        eprintln!(
            "FAIL: design sweep reported {} of {} designs",
            sweep.designs.len(),
            sweep_space.len()
        );
        failed = true;
    }

    // --- perf-regression gate vs the committed baseline ------------------
    let current = BenchBaseline {
        warm_iter_saving: saved,
        speedup_per_core: widest_speedup_per_core,
        cross_design_dedup_rate,
        serve_p99_ms,
    };
    if std::env::args().any(|a| a == "--write-baseline") {
        std::fs::write(BASELINE_PATH, current.to_json()).expect("write baseline");
        println!("refreshed {BASELINE_PATH}: {current:?}");
    } else {
        match std::fs::read_to_string(BASELINE_PATH) {
            Ok(text) => match BenchBaseline::from_json(&text) {
                Ok(baseline) => {
                    for msg in baseline.regressions(&current, BASELINE_TOLERANCE) {
                        eprintln!("FAIL: {msg}");
                        failed = true;
                    }
                }
                Err(e) => {
                    eprintln!("FAIL: {BASELINE_PATH} is malformed: {e}");
                    failed = true;
                }
            },
            // No committed baseline: report, don't gate (first run).
            Err(_) => println!(
                "no {BASELINE_PATH}; refresh with: \
                 cargo run --release --example bench_campaign -- --write-baseline"
            ),
        }
    }

    // One well-known file for CI artifacts, plus a timestamped copy under
    // results/ so local reruns stop silently clobbering the only record.
    let json = to_json(&records);
    std::fs::write("BENCH_campaign.json", &json).expect("write BENCH_campaign.json");
    std::fs::create_dir_all("results").expect("create results/");
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let archived = format!("results/BENCH_campaign-{stamp}.json");
    std::fs::write(&archived, &json).unwrap_or_else(|e| panic!("write {archived}: {e}"));
    // Store stats from the disk-resume scenario ride along in the archive
    // so a perf investigation can see recovery/compaction behaviour too.
    let store_json = format!(
        "{{\n  \"records_loaded\": {},\n  \"stale_skipped\": {},\n  \
         \"corrupt_skipped\": {},\n  \"torn_tail_bytes\": {},\n  \
         \"appends\": {},\n  \"write_errors\": {},\n  \"hits\": {},\n  \
         \"misses\": {},\n  \"compactions\": {}\n}}\n",
        store_stats.records_loaded,
        store_stats.stale_skipped,
        store_stats.corrupt_skipped,
        store_stats.torn_tail_bytes,
        store_stats.appends,
        store_stats.write_errors,
        store_stats.hits,
        store_stats.misses,
        store_stats.compactions
    );
    let store_archived = format!("results/STORE_resume-{stamp}.json");
    std::fs::write(&store_archived, &store_json)
        .unwrap_or_else(|e| panic!("write {store_archived}: {e}"));
    println!(
        "wrote BENCH_campaign.json, {archived} ({} records), and {store_archived}",
        records.len()
    );
    if failed {
        std::process::exit(1);
    }
}
