#!/usr/bin/env bash
# Local CI: formatting, release build, full test suite (which holds the
# virtual fixed point: BENCH_*.json virtual subtrees, paper output and
# Chrome-trace goldens), lints, docs, trace artifact validation, CLI
# rejection checks, and the benchmark suite's host gate against the
# checked-in BENCH_*.json baselines. Everything runs offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> chaos soak at 1,000 seeds (release)"
# The test suite's default 32 seeds missed a pilot stopped while it
# booted; 1,000 seeds hit that path on 22 of them.
CHAOS_SEEDS=1000 cargo test --release -q --test chaos

echo "==> e2e benchmark package (public rp_pilot API + pinned fingerprints)"
# Its own package, outside the workspace: it builds against the public
# rp_pilot API and checks the virtual fingerprints at the smoke sizes.
cargo test --offline -q --manifest-path crates/bench/src/bin/e2e/Cargo.toml

echo "==> cargo clippy -D warnings (+ todo/dbg_macro, no #[allow]; clippy.toml denies host clocks and hash containers)"
# A waiver is an #[expect(..., reason = "...")], which fails once it goes stale.
cargo clippy --workspace --all-targets -- -D warnings -W clippy::todo -W clippy::dbg_macro \
    -D clippy::allow_attributes

echo "==> cargo clippy, library code: no unwrap, no loop over a hash container"
# Clippy caches results per lint set; its own target dir keeps this pass
# and the one above from invalidating each other on every run.
cargo clippy --workspace --lib --target-dir target/clippy-lib -- \
    -D warnings -D clippy::unwrap_used -D clippy::iter_over_hash_type

echo "==> cargo doc -D warnings (broken intra-doc links fail here)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> traced quickstart + Perfetto artifact validation"
TRACE_OUT="${TRACE_OUT:-target/quickstart_trace.json}"
cargo run --release -q --example quickstart -- --trace-out "$TRACE_OUT" > /dev/null
cargo run --release -q -p rp-bench --bin trace_validate -- "$TRACE_OUT"

echo "==> paper rejects an unknown experiment name"
if cargo run --release -q -p rp-bench --bin paper -- --only nosuch > /dev/null 2>&1; then
    echo "paper accepted the unknown experiment nosuch"; exit 1
fi

echo "==> bench_suite rejects an unknown option"
# Were --quik ignored, this would run one scenario into target/, not the
# whole suite over the checked-in BENCH_*.json.
status=0
cargo run --release -q -p rp-bench --bin bench_suite -- \
    --quik --scenario fig5_startup --out-dir target/bench-reject > /dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
    echo "bench_suite did not reject the unknown option --quik (exit $status)"; exit 1
fi

echo "==> bench_compare rejects an unknown option"
# Were --scenaro ignored, this would compare all eight scenarios and pass.
status=0
cargo run --release -q -p rp-bench --bin bench_compare -- \
    --baseline . --candidate . --scenaro fig5_startup > /dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
    echo "bench_compare did not reject the unknown option --scenaro (exit $status)"; exit 1
fi

echo "==> trace tools reject unknown arguments"
# Were the second path ignored, trace_validate would check one file and
# pass; trace_diff takes exactly two paths and no flags.
status=0
cargo run --release -q -p rp-bench --bin trace_validate -- \
    "$TRACE_OUT" "$TRACE_OUT" > /dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
    echo "trace_validate did not reject a second path (exit $status)"; exit 1
fi
status=0
cargo run --release -q -p rp-bench --bin trace_diff -- \
    --json BENCH_fig5_startup.json BENCH_fig5_startup.json > /dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
    echo "trace_diff did not reject the unknown option --json (exit $status)"; exit 1
fi

echo "==> RDD example smoke (word count, K-Means; cold == warm cache pass)"
cargo run --release -q --example spark_rdd_analytics > /dev/null

echo "==> bench suite (quick) + host gate"
# --quick skips scale_10k; tests/fixed_point.rs pins its virtual subtree.
BENCH_OUT="${BENCH_OUT:-target/bench}"
RP_THREADS="${RP_THREADS:-2}" cargo run --release -q -p rp-bench --bin bench_suite -- --quick --out-dir "$BENCH_OUT"
cargo run --release -q -p rp-bench --bin bench_compare -- \
    --baseline . --candidate "$BENCH_OUT" \
    --scenario fig5_startup --scenario fig5_unit_startup \
    --scenario fig6_kmeans --scenario fault_matrix \
    --scenario pilot_loss --scenario partition_heal --scenario scale_1k

if [ "${CI_SCALE:-0}" = "1" ]; then
    echo "==> CI_SCALE=1: 100k-unit scale tier (same assertions, full volume)"
    SCALE_UNITS=100000 cargo test --release -q --test scale
fi

echo "==> OK"
