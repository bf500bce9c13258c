#!/bin/sh
# Offline-first CI gate. The workspace has zero third-party dependencies,
# so everything here must pass with no network access (--offline). The
# workspace includes dso-bench, so the release build below also builds
# the paper's figure and table binaries that the reproduce stage runs.
#
# Usage: ./ci.sh [lint|test]
#   lint — fmt check, clippy, rustdoc (the static stages)
#   test — build, tests, perfbench tests, reproduce, finer-step
#          Table 1, examples, resume drill, serve drill (the run stages)
# With no argument both groups run, in lint-first order. The GitHub
# workflow runs the two groups as parallel jobs.
set -eu

cd "$(dirname "$0")"

stage="${1:-all}"
case "$stage" in
lint | test | all) ;;
*)
    echo "usage: $0 [lint|test]" >&2
    exit 2
    ;;
esac

if [ "$stage" = "lint" ] || [ "$stage" = "all" ]; then
    echo "==> fmt (check only)"
    if cargo fmt --version >/dev/null 2>&1; then
        cargo fmt --all --check
    else
        echo "    rustfmt not installed; skipped"
    fi

    echo "==> clippy (offline, deny warnings)"
    if cargo clippy --version >/dev/null 2>&1; then
        cargo clippy --workspace --all-targets -q --offline -- -D warnings
    else
        echo "    clippy not installed; skipped"
    fi

    echo "==> doc (offline, deny rustdoc warnings)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q --offline
fi

if [ "$stage" = "test" ] || [ "$stage" = "all" ]; then
    echo "==> build (release, offline)"
    cargo build --release --workspace -q --offline

    echo "==> test (offline)"
    cargo test --workspace -q --offline

    echo "==> perfbench (release, offline: build + helper tests)"
    # perfbench is a standalone package outside the workspace that drives
    # the public API, so the workspace build above does not compile it. A
    # public-API change that breaks the benchmark must fail here.
    cargo test --release -q --offline --manifest-path perfbench/Cargo.toml

    echo "==> reproduce (Table 1, Figs. 1-7 and the duty ablation against results/)"
    # Reruns the paper artifacts and fails on any drift from the committed
    # text. Every binary runs its analyses on one Session (planes, border,
    # detect), so table1, fig2, fig3, fig4, fig5, fig6 and ablation_duty
    # all gate prefetched border searches, whose detection runs stop at
    # their last read; fig2 and fig6 exit with an error if their plane
    # campaign has an interpolated gap, and table1 gates the optimizer's
    # stress probes. fig3, fig4 and fig5 print Vsa values, so they gate
    # the read threshold and write-end transients stopped at word-line
    # closing. fig2 and fig6
    # print the planes' Vsa(R) curves, so they gate the hinted threshold
    # searches chained along each sweep. Every transient of every binary
    # runs through its MNA system's compiled stamp plan (folded device
    # constants, device-ordered stamps), with every column source pinning
    # its grounded node out of the Newton system, and starts a warm step
    # from its probed residual, so the nine byte-gated artifacts gate
    # those bits too. A plane campaign reads its w1 plane off the w0 settle
    # runs only where the time grid reaches the end of their w1 setup
    # writes bitwise and at most two operations are reported; fig2 runs at
    # dt = tcyc/600, where 1200 steps of dt miss 2 tcyc, and fig6 reports
    # three operations, so both still simulate every w1 and gate that
    # fallback. Each binary's wall time is printed for the record; it
    # gates nothing.
    for bin in table1 fig1_model fig2_result_planes fig3_timing fig4_temperature fig5_voltage fig6_sc_planes fig7_defects ablation_duty; do
        printf '    %-18s' "$bin"
        t0=$(date +%s.%N)
        "target/release/$bin" 2>&1 | diff -u "results/$bin.txt" -
        t1=$(date +%s.%N)
        awk -v t0="$t0" -v t1="$t1" 'BEGIN { printf "%6.1f s\n", t1 - t0 }'
    done

    echo "==> finer-step Table 1 (dt = tcyc/1200 against results/table1.txt)"
    # The optimizer at half the reproduction's time step must print the
    # committed 14-row table byte for byte (about 8 s; ignored by a plain
    # cargo test).
    cargo test --release -q --offline --test table1_time_step -- --ignored

    echo "==> examples (stdout against results/example_<name>.txt)"
    # Each example's stdout must match its committed output byte for byte.
    # spice_deck is the one end-to-end path from a parsed deck's .tran
    # directive through TranOptions::new to a transient; its ammeter source
    # floats between two non-ground nodes, so the transient also runs the
    # branch-current path of sources that pin no node. quickstart runs the
    # optimizer on one defect, march_coverage the march-test coverage of a
    # defect ensemble, shmoo_plot a detection shmoo over Vdd x tcyc (it
    # prints the border search's evaluation count, not cache counters,
    # which count Session::border's multi-thread prefetches). design_sweep
    # runs three column designs expanded from configs, two of them equal,
    # so it gates the design fingerprints and the cross-design reuse count.
    for ex in spice_deck:spice_deck quickstart:quickstart march_coverage:march shmoo_plot:shmoo design_sweep:design_sweep; do
        printf '    %s\n' "${ex%%:*}"
        cargo run --release -q --offline --example "${ex%%:*}" |
            diff -u "results/example_${ex#*:}.txt" -
    done

    echo "==> resume drill (kill-and-resume the persistent result store)"
    # Tears a result store mid-append with injected short writes, reopens it,
    # and resumes the campaign. Exits non-zero if recovery drops a clean
    # record, the resume re-simulates persisted work, or the resumed border
    # diverges. Recovery stats land in results/RESUME_drill-<stamp>.json.
    cargo run --release -q --offline --example resume_campaign

    echo "==> serve drill (mixed-workload soak of the service daemon)"
    # Replays a seeded interleave of interactive queries over a bulk
    # campaign against the embedded daemon at 1/2/4/8 workers. Exits
    # non-zero on any divergence from the direct Session results (the
    # service determinism contract), any dropped/duplicated response or
    # protocol error, an interactive-class p99 beyond the hard gate, or
    # broken abort semantics (deadline, cancel, queue_full backpressure).
    # Latency histograms, queue stats, and cancellation counts land in
    # results/SERVE_drill-<stamp>.json.
    cargo run --release -q --offline --example serve_drill
fi

echo "==> ci: OK ($stage)"
