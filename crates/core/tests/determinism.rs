//! Determinism contract of the parallel campaign executor.
//!
//! The planes, sweep report, gaps, and extracted border of a campaign must
//! be **bit-identical** for every thread count — with and without injected
//! faults — because chunk decomposition, warm-seed chains, and fault-plan
//! resolution are keyed on sweep index, never on scheduling. The contract
//! is pinned warm and cold, clean and with an injected fault. This suite
//! also pins the warm-start payoff (fewer Newton iterations), that the
//! solver's LU reuse and device bypass actually fire, and a loom-free
//! interleaving smoke test that executes the chunks of a real simulation
//! grid in a seeded-shuffled order. The stress optimizer, whose border
//! comparisons fan candidate searches out over the executor, is pinned the
//! same way.

use dso_core::analysis::{Analyzer, CampaignFaults, Confidence, PlaneCampaign};
use dso_core::exec::{self, CampaignConfig};
use dso_core::stress::{DecisionBasis, OptimizerConfig, StressOptimizer, StressReport};
use dso_core::{CacheStats, EvalService, Session};
use dso_defects::{BitLineSide, Defect};
use dso_dram::column::DefectSite;
use dso_dram::design::{ColumnDesign, OperatingPoint};
use dso_num::chaos::{FaultKind, FaultPlan};
use dso_num::interp::logspace;
use dso_num::testing::TestRng;

/// Coarse time step so debug-mode campaigns stay affordable.
fn fast_design() -> ColumnDesign {
    ColumnDesign {
        dt_fraction: 1.0 / 250.0,
        ..ColumnDesign::default()
    }
}

fn sweep() -> Vec<f64> {
    logspace(1e4, 1e7, 6).expect("valid sweep")
}

/// One campaign at `threads` with warm-start chaining `warm`.
fn campaign_with(threads: usize, warm: bool, faults: &CampaignFaults) -> PlaneCampaign {
    let defect = Defect::cell_open(BitLineSide::True);
    let config = CampaignConfig::with_threads(threads)
        .with_chunk(2)
        .with_warm_start(warm);
    // A fresh session (fresh service) per run: every thread count
    // recomputes from scratch instead of replaying a shared cache.
    let analyzer = Analyzer::new(fast_design());
    let session = Session::from_parts(EvalService::new(analyzer), config);
    session
        .planes_faulted(&defect, &OperatingPoint::nominal(), &sweep(), 1, faults)
        .expect("campaign runs")
}

/// Warm-started campaign at `threads`.
fn campaign_at(threads: usize, faults: &CampaignFaults) -> PlaneCampaign {
    campaign_with(threads, true, faults)
}

/// Bitwise equality of two campaigns: every plane curve, every report
/// entry, every gap, and the extracted border.
fn assert_bit_identical(a: &PlaneCampaign, b: &PlaneCampaign, label: &str) {
    // `ResultPlanes: PartialEq` compares every f64 of every curve; equal
    // finite f64s are equal bit patterns (no NaNs survive a campaign, and
    // the sweeps never produce -0.0 vs 0.0 splits on curve data).
    assert_eq!(a.planes, b.planes, "{label}: planes diverged");
    assert_eq!(a.report, b.report, "{label}: sweep report diverged");
    assert_eq!(a.confidence, b.confidence, "{label}: confidence diverged");
    assert_eq!(a.gaps(), b.gaps(), "{label}: gaps diverged");
    let border = |c: &PlaneCampaign| {
        c.border_from_intersection()
            .expect("no gap straddles the border")
            .map(f64::to_bits)
    };
    assert_eq!(border(a), border(b), "{label}: border bits diverged");
}

#[test]
fn parallel_campaign_bit_identical_to_serial() {
    let clean = CampaignFaults::new();
    let faulted = CampaignFaults::new().with_fault(2, FaultPlan::always(FaultKind::NanResidual));
    let cases = [
        ("warm", true, &clean, 0),
        ("cold", false, &clean, 0),
        ("cold faulted", false, &faulted, 1),
    ];
    for (label, warm, faults, failed) in cases {
        let serial = campaign_with(1, warm, faults);
        assert_eq!(serial.report.failed(), failed, "{label}");
        for threads in [2, 4, 8] {
            let parallel = campaign_with(threads, warm, faults);
            assert_bit_identical(&serial, &parallel, &format!("{label}, threads = {threads}"));
        }
    }
}

#[test]
fn reference_sweep_exercises_lu_reuse_and_bypass() {
    // LU reuse and device bypass must actually fire on the reference
    // sweep, or every identity test above leaves them unexercised: the
    // modified-Newton policy should reuse more factorizations than it
    // builds, and the device bypass should land hits.
    let clean = CampaignFaults::new();
    let reference = campaign_at(1, &clean);
    assert!(
        reference.perf.lu_reuse_rate() > 0.5,
        "LU reuse rate {:.2} never cleared 0.5 on the reference sweep",
        reference.perf.lu_reuse_rate()
    );
    assert!(
        reference.perf.bypass_hits > 0,
        "device bypass never hit on the reference sweep"
    );
}

#[test]
fn parallel_campaign_bit_identical_under_faults() {
    // Kill one interior sweep point outright; the chaos ordinals are keyed
    // on sweep index, so every thread count must see the identical gap.
    let faults = CampaignFaults::new().with_fault(1, FaultPlan::always(FaultKind::NanResidual));
    let serial = campaign_at(1, &faults);
    assert_eq!(serial.report.failed(), 1);
    assert_eq!(serial.gaps().len(), 1);
    for threads in [2, 4, 8] {
        let parallel = campaign_at(threads, &faults);
        assert_eq!(parallel.report.failed(), 1, "threads = {threads}");
        assert_bit_identical(&serial, &parallel, &format!("threads = {threads} faulted"));
    }
}

#[test]
fn result_planes_parallel_matches_serial_and_warm_start_pays() {
    let analyzer = Analyzer::new(fast_design());
    let defect = Defect::cell_open(BitLineSide::True);
    let op = OperatingPoint::nominal();
    let r_values = sweep();

    // Every point must be simulated: no gap, no interpolated value.
    let run = |config: &CampaignConfig| {
        let session = Session::from_parts(EvalService::new(analyzer.clone()), config.clone());
        let campaign = session
            .planes(&defect, &op, &r_values, 1)
            .expect("planes build");
        assert_eq!(campaign.confidence, Confidence::Full);
        assert_eq!(campaign.report.failed(), 0);
        (campaign.planes, campaign.perf)
    };

    // One chunk spanning the whole sweep maximizes the warm chain.
    let whole = CampaignConfig::serial().with_chunk(r_values.len());
    let (warm_planes, warm_perf) = run(&whole);
    let (cold_planes, cold_perf) = run(&whole.clone().with_warm_start(false));

    // Warm starts actually happened and saved Newton work.
    assert_eq!(warm_perf.points, r_values.len());
    // Three seedable transients run per point (`w0` and the two read
    // trajectories): the 1/250 grid reaches the end of the `w0` run's first
    // setup write, so the `w1` plane is read off that run, not simulated.
    // The chunk head runs them cold.
    assert_eq!(warm_perf.warm_hits, 3 * (r_values.len() - 1));
    assert_eq!(warm_perf.warm_misses, 3);
    assert_eq!(cold_perf.warm_hits, 0);
    assert_eq!(cold_perf.warm_misses, 3 * r_values.len());
    assert!(
        warm_perf.newton_iters < cold_perf.newton_iters,
        "warm {} !< cold {} Newton iterations",
        warm_perf.newton_iters,
        cold_perf.newton_iters
    );
    // Newton iteration counts are deterministic, so the floor can sit
    // close to the measured saving (0.392 on this fixture).
    let saved = 1.0 - warm_perf.newton_iters as f64 / cold_perf.newton_iters as f64;
    assert!(
        saved >= 0.327,
        "warm start saved only {:.1}% of Newton iterations",
        saved * 100.0
    );
    // Cold solves still chain modified-Newton iterations within a point.
    assert!(
        cold_perf.lu_reuse_rate() > 0.5,
        "cold LU reuse rate {:.3} never cleared 0.5",
        cold_perf.lu_reuse_rate()
    );
    // Warm and cold solve the same physics to the same tolerance.
    let warm_border = warm_planes.border_from_intersection().unwrap().unwrap();
    let cold_border = cold_planes.border_from_intersection().unwrap().unwrap();
    assert!(
        (warm_border - cold_border).abs() < 0.05 * cold_border,
        "warm {warm_border:.4e} vs cold {cold_border:.4e}"
    );

    // Thread count never changes the bits (same chunking, warm on).
    let serial = run(&CampaignConfig::with_threads(1).with_chunk(2));
    for threads in [2, 4, 8] {
        let parallel = run(&CampaignConfig::with_threads(threads).with_chunk(2));
        assert_eq!(serial.0, parallel.0, "threads = {threads}");
        assert_eq!(serial.1, parallel.1, "threads = {threads}: perf stats");
    }
}

#[test]
fn metrics_shard_merge_is_order_invariant() {
    // The observability registry merges per-thread metric shards with
    // commutative operations only, so any drain order — 1, 2, 4, or 8
    // workers finishing in any interleaving — must produce identical
    // totals. Exercised on standalone shards (no global state) so it can
    // run alongside the campaign tests in this binary.
    use dso_obs::metrics::Shard;

    let edges: &[f64] = &[2.0, 8.0, 32.0];
    let worker_shard = |w: u64| {
        let mut s = Shard::new();
        // Slot 0: counter, slot 1: gauge (max), slot 2: histogram.
        s.add_counter(0, 10 + w);
        s.set_gauge(1, w as f64 * 1.5);
        for i in 0..w {
            s.observe(2, edges, i as f64);
        }
        s
    };
    let shards: Vec<Shard> = (1..=8).map(worker_shard).collect();

    let merge_in = |order: &[usize]| {
        let mut acc = Shard::new();
        for &i in order {
            acc.merge(&shards[i]);
        }
        acc
    };
    let in_order: Vec<usize> = (0..shards.len()).collect();
    let reference = merge_in(&in_order);

    // Seeded-shuffled drain orders, modelling 8 workers finishing in any
    // interleaving.
    let mut rng = TestRng::new(0x0B5_CAFE);
    for round in 0..5 {
        let mut order = in_order.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.index(i + 1));
        }
        assert_eq!(merge_in(&order), reference, "round {round}: {order:?}");
    }

    // Hierarchical (tree) merge, modelling nested scopes at thread counts
    // 2 and 4: pairwise-merge halves, then merge the halves.
    let tree = |groups: &[&[usize]]| {
        let mut acc = Shard::new();
        for g in groups {
            acc.merge(&merge_in(g));
        }
        acc
    };
    assert_eq!(tree(&[&[0, 1, 2, 3], &[4, 5, 6, 7]]), reference);
    assert_eq!(tree(&[&[7, 5], &[3, 1], &[6, 4], &[2, 0]]), reference);
    assert_eq!(
        tree(&[&[0], &[1], &[2], &[3], &[4], &[5], &[6], &[7]]),
        reference
    );
}

#[test]
fn shuffled_chunk_interleaving_is_bit_identical() {
    // Loom-free interleaving smoke test: execute the chunks of a real
    // simulation grid in a seeded-shuffled completion order and require
    // the reassembled output to match the in-order run bit for bit. Chunk
    // completion order is the only scheduling freedom the executor has, so
    // permuting it covers the interleavings a scheduler could produce.
    let analyzer = Analyzer::new(fast_design());
    let defect = Defect::cell_open(BitLineSide::True);
    let op = OperatingPoint::nominal();
    let r_values = sweep();
    let config = CampaignConfig::serial().with_chunk(2);

    // A fresh service per run keeps every order recomputing from scratch
    // (a shared memo cache would make the comparison trivially true).
    let run_in = |order: &[usize]| {
        let service = EvalService::new(analyzer.clone());
        exec::map_chunked_in_order(r_values.len(), &config, order, |range| {
            range
                .map(|i| {
                    let vcs = service
                        .settle_sequence(&defect, r_values[i], &op, false, 1)
                        .expect("settle converges");
                    vcs[0].to_bits()
                })
                .collect::<Vec<_>>()
        })
    };

    let n_chunks = exec::chunk_ranges(
        r_values.len(),
        exec::effective_chunk(r_values.len(), config.chunk),
    )
    .len();
    let in_order: Vec<usize> = (0..n_chunks).collect();
    let reference = run_in(&in_order);

    let mut rng = TestRng::new(0xD5_0C0DE);
    for round in 0..3 {
        // Fisher-Yates with the repo's deterministic test RNG.
        let mut order = in_order.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.index(i + 1));
        }
        assert_eq!(
            run_in(&order),
            reference,
            "round {round}: order {order:?} diverged"
        );
    }
}

/// Two Table-1 rows, optimized cold on a fresh session at `threads`, and
/// the session's cache counters afterwards.
fn optimize_rows(threads: usize) -> (Vec<StressReport>, CacheStats) {
    let config = CampaignConfig::with_threads(threads).with_warm_start(true);
    let analyzer = Analyzer::new(fast_design());
    let session = Session::from_parts(EvalService::new(analyzer), config.clone());
    let optimizer = StressOptimizer::with_session(session).with_config(OptimizerConfig {
        exec: config,
        ..OptimizerConfig::default()
    });
    let reports = [
        Defect::new(DefectSite::O1, BitLineSide::True),
        Defect::new(DefectSite::Sv, BitLineSide::True),
    ]
    .iter()
    .map(|defect| {
        optimizer
            .optimize(defect, &OperatingPoint::nominal())
            .expect("row optimizes")
    })
    .collect();
    (reports, optimizer.service().cache_stats())
}

#[test]
fn optimizer_reports_are_thread_count_invariant() {
    let (serial, _) = optimize_rows(1);
    // O1 decides a stress by border comparison: its candidate searches
    // (hinted by the nominal border) run in the executor's fan-out.
    let compared = serial.iter().any(|r| {
        r.decisions
            .iter()
            .any(|d| matches!(d.basis, DecisionBasis::BorderComparison { .. }))
    });
    assert!(compared, "no row took a border comparison");
    let mut prefetching = None;
    for threads in [2, 4] {
        let (parallel, cache) = optimize_rows(threads);
        assert_eq!(parallel, serial, "threads {threads}: reports diverged");
        // From two threads up the lone searches prefetch, the same points
        // at every thread count, so the service sees the same requests.
        // One thread prefetches nothing.
        let counts = (cache.hits, cache.misses, cache.inserts);
        assert_eq!(
            *prefetching.get_or_insert(counts),
            counts,
            "threads {threads}: request set diverged"
        );
        // `Debug` prints every f64 in full, so this is bitwise.
        assert_eq!(
            format!("{parallel:?}"),
            format!("{serial:?}"),
            "threads {threads}: report bits diverged"
        );
    }
}
