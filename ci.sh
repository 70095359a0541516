#!/usr/bin/env bash
# Local CI: formatting, release build, full test suite, lints, docs, trace
# artifact validation, the benchmark suite + regression gate against the
# checked-in BENCH_*.json baselines, and a machine-checkable fixed-seed
# fault-matrix smoke run. Everything runs offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> e2e benchmark package (public rp_pilot API + pinned fingerprints)"
# Its own package, outside the workspace: it builds against the public
# rp_pilot API and checks the virtual fingerprints at the smoke sizes.
cargo test --offline -q --manifest-path crates/bench/src/bin/e2e/Cargo.toml

echo "==> cargo clippy -D warnings (+ todo/dbg_macro; clippy.toml denies host clocks and hash containers)"
cargo clippy --workspace --all-targets -- -D warnings -W clippy::todo -W clippy::dbg_macro

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

echo "==> RDD example smoke (word count, K-Means, triangles; cold == warm cache pass)"
cargo run --release -q --example spark_rdd_analytics > /dev/null

echo "==> bench suite (quick) + regression gate"
BENCH_OUT="${BENCH_OUT:-target/bench}"
RP_THREADS="${RP_THREADS:-2}" cargo run --release -q -p rp-bench --bin bench_suite -- --quick --out-dir "$BENCH_OUT"
baselines_present=true
for s in fig5_startup fig5_unit_startup fig6_kmeans fault_matrix pilot_loss partition_heal scale_1k scale_10k; do
    [ -f "BENCH_$s.json" ] || baselines_present=false
done
if $baselines_present; then
    # scale_10k is excluded: the quick suite deliberately skips the one
    # slow scenario, so the candidate dir has no artifact to diff. The
    # full-reps invocation in EXPERIMENTS.md still regenerates (and a
    # manual bench_compare without --scenario still gates) all eight.
    cargo run --release -q -p rp-bench --bin bench_compare -- \
        --baseline . --candidate "$BENCH_OUT" \
        --scenario fig5_startup --scenario fig5_unit_startup \
        --scenario fig6_kmeans --scenario fault_matrix \
        --scenario pilot_loss --scenario partition_heal --scenario scale_1k
else
    echo "    (no checked-in baselines; seeding BENCH_*.json from this run"
    echo "     — run 'bench_suite --out-dir .' without --quick for real host stats)"
    cp "$BENCH_OUT"/BENCH_*.json .
fi

echo "==> trace_diff attribution smoke (self-diff clean, perturbation attributed)"
# A baseline diffed against itself must be clean (exit 0)...
if [ -f BENCH_fault_matrix.json ]; then
    cargo run --release -q -p rp-bench --bin trace_diff -- \
        BENCH_fault_matrix.json BENCH_fault_matrix.json > /dev/null
fi
# ...and the integration tier proves a perturbed run (longer sleeps) is
# attributed to the compute phase, with the chrome reduction cross-checked
# against Trace::name_totals.
cargo test --release -q -p rp-bench --test trace_diff

echo "==> fault-matrix smoke (3 seeds x 3 intensities, JSON-checked)"
# A mistyped flag must be rejected, not silently run the default case.
if cargo run --release -q --example fault_injection 5 --jsn > /dev/null 2>&1; then
    echo "fault_injection accepted the unknown option --jsn"; exit 1
fi
for seed in 1 2 3; do
    for intensity in 2 6 12; do
        cargo run --release -q --example fault_injection "$seed" "$intensity" --json \
            | python3 -c '
import json, sys
d = json.loads(sys.stdin.read())
assert d["injected"] == d["planned"], (d["injected"], d["planned"])
assert d["done"] + d["failed"] == d["units"], d
# Every unit survives moderate fault schedules; heavy ones may exhaust
# the retry budget but must never lose more than the budget allows.
if d["intensity"] <= 6:
    assert d["failed"] == 0, d
assert all(u["attempts"] <= 4 for u in d["unit_states"]), d
assert d["makespan_s"] > 0, d
print("--- seed=%d intensity=%d: %d/%d done, %d retried, %d faults, makespan %.0fs"
      % (d["seed"], d["intensity"], d["done"], d["units"],
         d["retried"], d["injected"], d["makespan_s"]))
'
    done
done

echo "==> scale smoke (1k units: bounded working set + bit-identical replay)"
SCALE_UNITS=1000 cargo test --release -q --test scale

echo "==> pilot-kill smoke (failover to the surviving pilot, JSON-checked)"
cargo run --release -q --example fault_injection 5 --pilot-kill --json \
    | python3 -c '
import json, sys
d = json.loads(sys.stdin.read())
assert d["mode"] == "pilot_kill", d
assert d["kinds"] == ["NodeCrash", "NodeSlowdown", "ContainerKill",
                      "LinkDegrade", "StagingError", "PilotKill",
                      "Partition"], d["kinds"]
assert d["injected"] == d["planned"] == 1, d
assert d["done"] == d["units"] and d["failed"] == 0, d
assert d["rebound"] >= 1, d
print("--- pilot-kill: %d/%d done, %d re-bound, makespan %.0fs"
      % (d["done"], d["units"], d["rebound"], d["makespan_s"]))
'

echo "==> partition smoke (split-brain: self-fence, re-bind, stale-epoch rejection)"
cargo run --release -q --example fault_injection 5 --partition 600 --json \
    | python3 -c '
import json, sys
d = json.loads(sys.stdin.read())
assert d["mode"] == "partition", d
assert d["injected"] == d["planned"] == 1, d
assert d["done"] == d["units"] and d["failed"] == 0, d
assert d["rebound"] >= 1, d
assert d["partition_windows"] >= 1, d
# The zombie must have written under a stale epoch after the heal, and
# every one of those writes must have been fenced (held, then rejected).
assert d["fence_rejections"] >= 1, d
assert d["partition_holds"] >= d["fence_rejections"], d
assert d["lease_renewals"] >= 1, d
print("--- partition: %d/%d done, %d re-bound, %d held, %d fenced, makespan %.0fs"
      % (d["done"], d["units"], d["rebound"], d["partition_holds"],
         d["fence_rejections"], d["makespan_s"]))
'

if [ "${CI_SCALE:-0}" = "1" ]; then
    echo "==> CI_SCALE=1: 100k-unit scale tier (same assertions, full volume)"
    SCALE_UNITS=100000 cargo test --release -q --test scale
fi

if [ "${CI_SANITIZE:-0}" = "1" ]; then
    echo "==> CI_SANITIZE=1: chaos soak under ThreadSanitizer (nightly)"
    # The sanitizer needs a nightly toolchain and a rebuilt std; both may be
    # unavailable offline. A missing/broken toolchain is a skip, not a
    # failure — but if the sanitized tests themselves run and fail, we fail.
    if cargo +nightly --version > /dev/null 2>&1; then
        if RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly build -Z build-std --target "$(rustc -vV | sed -n 's/^host: //p')" \
                --release -q -p rp-pilot 2> /dev/null; then
            RUSTFLAGS="-Zsanitizer=thread" CHAOS_SEEDS=4 \
                cargo +nightly test -Z build-std --target "$(rustc -vV | sed -n 's/^host: //p')" \
                    --release -q --test chaos
            # The split-brain grid (partitions + leases + fencing) under
            # TSan at 8 seeds: lease renewal and held-message replay must
            # be data-race free too.
            RUSTFLAGS="-Zsanitizer=thread" CHAOS_SEEDS=8 \
                cargo +nightly test -Z build-std --target "$(rustc -vV | sed -n 's/^host: //p')" \
                    --release -q --test chaos partition_heal_grid
        else
            echo "    (nightly build-std unavailable — likely offline; skipping)"
        fi
    else
        echo "    (no nightly toolchain installed; skipping sanitizer stage)"
    fi
fi

echo "==> OK"
