#!/usr/bin/env bash
# CI gate: formatting, lints, build, tests.
#
# Usage: ./ci.sh [--quick]
#   --quick  skip the release build and run only the fast test subset
set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
    QUICK=1
fi

echo "==> cargo fmt --check"
cargo fmt --check

# The serving request path must stay panic-free: no .unwrap()/.expect(
# outside #[cfg(test)] in the files the fallible API flows through. The
# durability layer is held to the same bar: a corrupt byte on disk must
# surface as a typed StoreError, never a panic. So is the observability
# path: tracing and telemetry ride every request, and a panicking
# trace mark would take the request down with it. The SIMD kernels and the
# backend launch layer are on the same path: every search and every GP fit
# flows through them. The network frontend extends the path to the socket
# byte: frame decode, the reactor loop, and the HTTP gateway face hostile
# input and must shed typed errors, never panic. The replication layer
# joins them: a follower feeds peer-supplied bytes straight into its own
# store, and a primary must survive any follower's protocol mistake.
echo "==> panic-free request path (no unwrap/expect in serving files)"
GATED_FILES=(
    crates/simd/src/lib.rs
    crates/gpu/src/backend.rs
    crates/core/src/system.rs
    crates/core/src/sensor.rs
    crates/core/src/predictor.rs
    crates/core/src/serve.rs
    crates/core/src/regime.rs
    crates/core/src/stream.rs
    crates/gp/src/robust.rs
    crates/timeseries/src/synthetic/chaos.rs
    crates/index/src/search.rs
    crates/index/src/scan.rs
    crates/index/src/fleet.rs
    crates/store/src/checkpoint.rs
    crates/store/src/codec.rs
    crates/store/src/lib.rs
    crates/store/src/store.rs
    crates/store/src/wal.rs
    crates/obs/src/trace.rs
    crates/obs/src/window.rs
    crates/obs/src/stamp.rs
    crates/net/src/frame.rs
    crates/net/src/reactor.rs
    crates/net/src/server.rs
    crates/net/src/http.rs
    crates/net/src/qos.rs
    crates/net/src/client.rs
    crates/net/src/load.rs
    crates/net/src/repl.rs
    crates/cluster/src/lib.rs
    crates/cluster/src/conn.rs
    crates/cluster/src/placement.rs
    crates/cluster/src/primary.rs
    crates/cluster/src/follower.rs
)
GATE_FAIL=0
for f in "${GATED_FILES[@]}"; do
    HITS=$(awk '/^#\[cfg\(test\)\]/{exit} {print NR": "$0}' "$f" \
        | grep -F -e '.unwrap()' -e '.expect(' || true)
    if [[ -n "$HITS" ]]; then
        echo "ERROR: panicking call in request path $f:"
        echo "$HITS"
        GATE_FAIL=1
    fi
done
if [[ "$GATE_FAIL" == "1" ]]; then
    echo "==> ci.sh: FAILED (use typed errors or infallible fallbacks in the request path)"
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The scalar fallback is always compiled and must stay bitwise-identical to
# the lane kernels; the kernel crates are also built and tested with the
# `simd` feature off so the scalar dispatch path itself stays green.
echo "==> cargo test (kernel crates, scalar dispatch: --no-default-features)"
cargo test -p smiler-simd -p smiler-dtw -p smiler-timeseries -p smiler-linalg -p smiler-gp \
    --no-default-features --lib

if [[ "$QUICK" == "1" ]]; then
    echo "==> cargo test --workspace (lib + bins only)"
    cargo test --workspace --lib --bins

    # Both launch backends over full continuous steps, bitwise-identical
    # predictions and kNN sets (plus the scalar/lane and cascade oracles).
    echo "==> cargo test --test hotpath_equivalence (backend + kernel equivalence)"
    cargo test -p smiler-core --test hotpath_equivalence

    echo "==> cargo test --test fault_tolerance"
    cargo test -p smiler-core --test fault_tolerance

    echo "==> cargo test --test serving"
    cargo test -p smiler-core --test serving

    # Checkpoint/restore smoke: runs a fleet, kills it mid-run, restores
    # from checkpoint + WAL, and compares predictions bitwise against a
    # never-stopped fleet (plus torn-tail and checkpoint-corruption cases).
    echo "==> cargo test --test durability (kill/restore bitwise smoke)"
    cargo test -p smiler-core --test durability

    # Request tracing: exactly one schema-valid terminal per admitted
    # request, bitwise-invisible to predictions, and the status surface
    # (windowed tails, rung mix, SLO burn, model quality).
    echo "==> cargo test --test tracing (request traces + status surface)"
    cargo test -p smiler-core --test tracing

    # Wire protocol: frame-decoder fuzz/property sweep plus a loopback
    # serve smoke (bitwise wire-vs-in-process, 2x-saturation typed sheds,
    # HTTP gateway, per-tenant QoS) — the socket-facing request path must
    # never panic or hang on hostile bytes.
    echo "==> cargo test --test net (protocol fuzz + loopback serve smoke)"
    cargo test -p smiler-net --test net

    # Adaptation under chaos: clean-workload bitwise invariance, drift
    # and sensor-swap changepoints, spike cleaning, dropout holdoff —
    # plus the dirty-input regression sweep (stuck-at flat rung in
    # fault_tolerance, dropout-burst gap caps and jitter-storm duplicate
    # rejection in the stream suite, chaos feeds through the server and
    # the wire in serving/net above).
    echo "==> cargo test --test chaos (adaptation smoke)"
    cargo test -p smiler-core --test chaos

    # Cluster smoke: WAL-shipping replication, the lagging-follower
    # segment-pinning regression, and the headline kill/promote test — a
    # promoted follower's forecasts must be bitwise identical to what the
    # dead primary would have served.
    echo "==> cargo test --test cluster (kill/promote bitwise smoke)"
    cargo test -p smiler-cluster --test cluster

    # The load-generating bench entry points must at least compile.
    echo "==> cargo build -p smiler-bench (expt compile check)"
    cargo build -p smiler-bench --bin expt
else
    echo "==> cargo build --workspace --release"
    cargo build --workspace --release

    echo "==> cargo test --workspace"
    cargo test --workspace

    # Serve smoke with tracing on: a real CLI run writing request traces
    # and status lines, every trace schema-validated by the CLI test; then
    # the observability budget — trace-path cost must stay under 5% of a
    # served request, traces complete and schema-valid, predictions
    # bitwise-identical with tracing on.
    echo "==> expt bench-obs --smoke --enforce-budget (observability budget)"
    cargo run -p smiler-bench --release --bin expt -- \
        bench-obs --smoke --enforce-budget --out "$(mktemp -d)/BENCH_obs_smoke.json"

    # Kernel roofline smoke: the per-kernel throughput report must produce
    # sane numbers on both roofs (accounting errors show up as >>1 roof
    # fractions, caught by the module's own tests above).
    echo "==> expt bench-kernels --smoke (per-kernel roofline)"
    cargo run -p smiler-bench --release --bin expt -- \
        bench-kernels --smoke --out "$(mktemp -d)/BENCH_kernels_smoke.json"

    # Wire-serving smoke: open-loop Poisson load over loopback TCP through
    # the smiler-net frontend, including a 2x-saturation point that must
    # shed typed errors without hanging.
    echo "==> expt bench-net --smoke (open-loop wire serving)"
    cargo run -p smiler-bench --release --bin expt -- \
        bench-net --smoke --out "$(mktemp -d)/BENCH_net_smoke.json"

    # Accuracy-under-chaos smoke: adaptive must beat the fixed schedule
    # on regime shifts while the clean scenario stays bitwise identical
    # (the run exits nonzero if the invariance proof fails).
    echo "==> expt bench-chaos --smoke (adaptation accuracy + invariance)"
    cargo run -p smiler-bench --release --bin expt -- \
        bench-chaos --smoke --out "$(mktemp -d)/BENCH_chaos_smoke.json"

    # Replication smoke: bootstrap + streaming throughput, follower lag
    # quantiles, and the kill/promote failover timing — the run exits
    # nonzero if the promoted forecasts diverge from the dead primary's.
    echo "==> expt bench-cluster --smoke (replication + failover)"
    cargo run -p smiler-bench --release --bin expt -- \
        bench-cluster --smoke --out "$(mktemp -d)/BENCH_cluster_smoke.json"

    echo "==> cargo bench --workspace --no-run"
    cargo bench --workspace --no-run
fi

echo "==> ci.sh: all checks passed"
