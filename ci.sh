#!/bin/bash
# CI pipeline: named, individually timed stages (fmt → build → test →
# smokes → gates). A failed stage does NOT abort the run — every stage
# executes, the summary table reports each stage's wall-clock and
# outcome, and the script exits non-zero iff any stage failed.
# Fully offline — every external dependency is vendored under vendor/
# (crates.io is unreachable in the eval sandbox; prefer std over new
# external deps).
set -u
cd "$(dirname "$0")"

# Warnings are errors in CI; the dev loop stays lenient. Deprecated
# calls are hard errors too: a removed grace-period shim must take its
# callers with it, not linger behind an allow.
export RUSTFLAGS="-D warnings -D deprecated"

STAGES=()
TIMES=()
RESULTS=()
FAILED=0

# Every fleetd spawned by a gate registers here; cleanup kills AND waits
# (reaps) each one, so neither an early `return` in a gate nor an
# interrupted run can leak a daemon past the script's lifetime. Safe to
# call repeatedly — dead PIDs kill/wait as no-ops.
FLEETD_PIDS=()
cleanup_fleetd() {
  local pid
  for pid in "${FLEETD_PIDS[@]}"; do
    kill "$pid" 2> /dev/null
    wait "$pid" 2> /dev/null
  done
  FLEETD_PIDS=()
}
trap cleanup_fleetd EXIT

stage() {
  local name="$1"
  shift
  echo
  echo "==> [$name]"
  local start=$SECONDS
  if "$@"; then
    RESULTS+=(ok)
  else
    RESULTS+=(FAIL)
    FAILED=1
  fi
  STAGES+=("$name")
  TIMES+=($((SECONDS - start)))
}

# The build stage compiles every workspace target (libs, bench bins,
# examples' deps) exactly once; all later stages invoke the prebuilt
# binaries directly instead of going through `cargo run`, so each gate
# pays zero cargo lock/fingerprint overhead and the summary times
# measure the gate, not the build system.
build_all() {
  cargo build --release --workspace
}

# Fast robustness-campaign smoke: quick grid, deterministic report.
# Single worker on purpose: the report is byte-identical for any
# --threads, but the CI box has one CPU, so extra workers time-slice
# and inflate the stage latency histograms with preemption noise —
# the telemetry gate should measure stage cost, not scheduler jitter.
smoke_robustness() {
  ./target/release/robustness_campaign \
    --quick --seed 7 --threads 1 --out artifacts/robustness_smoke.json \
    --metrics-out artifacts/telemetry_smoke_quick.json
}

# Telemetry smoke gate: the quick grid's counters must match the
# checked-in baseline exactly; stage timings may drift within generous
# bounds (CI machines vary — this catches order-of-magnitude blowups,
# not percent-level noise).
gate_telemetry() {
  ./target/release/telemetry_report \
    diff BENCH_telemetry_baseline.json artifacts/telemetry_smoke_quick.json \
    --max-rel-mean 8 --max-rel-tail 25 --min-mean-us 2
}

# Shard-equivalence gate: run the same quick campaign as shards 0/2 and
# 1/2, merge the shard artifacts, and require (a) the merged report to
# be byte-identical to the unsharded smoke report, (b) the merged
# telemetry to pass the same deterministic-counter diff against the
# smoke telemetry, and (c) a shard 0/2 resumed from the first 8 of its
# 10 checkpoint lines to evaluate only the other 2 and still merge to
# the byte-identical report.
gate_shard_equivalence() {
  rm -f artifacts/ci_shard0.ckpt.jsonl artifacts/ci_shard1.ckpt.jsonl &&
    ./target/release/robustness_campaign \
      --quick --seed 7 --threads 1 --shard 0/2 \
      --checkpoint artifacts/ci_shard0.ckpt.jsonl \
      --shard-out artifacts/ci_shard0.json &&
    ./target/release/robustness_campaign \
      --quick --seed 7 --threads 1 --shard 1/2 \
      --checkpoint artifacts/ci_shard1.ckpt.jsonl \
      --shard-out artifacts/ci_shard1.json &&
    ./target/release/robustness_campaign \
      merge artifacts/ci_shard0.json artifacts/ci_shard1.json \
      --out artifacts/ci_sharded_report.json \
      --metrics-out artifacts/ci_sharded_telemetry.json &&
    cmp artifacts/robustness_smoke.json artifacts/ci_sharded_report.json &&
    echo "sharded report is byte-identical to the unsharded smoke report" &&
    ./target/release/telemetry_report \
      diff artifacts/telemetry_smoke_quick.json artifacts/ci_sharded_telemetry.json \
      --max-rel-mean 8 --max-rel-tail 25 --min-mean-us 2 &&
    head -n 8 artifacts/ci_shard0.ckpt.jsonl > artifacts/ci_shard0_resume.ckpt.jsonl &&
    ./target/release/robustness_campaign \
      --quick --seed 7 --threads 1 --shard 0/2 --resume \
      --checkpoint artifacts/ci_shard0_resume.ckpt.jsonl \
      --shard-out artifacts/ci_shard0_resumed.json 2> artifacts/ci_shard0_resumed.err &&
    grep -q '2 evaluated, 8 restored' artifacts/ci_shard0_resumed.err &&
    echo "resumed shard 0/2 evaluated 2 and restored 8 checkpointed grid points" &&
    ./target/release/robustness_campaign \
      merge artifacts/ci_shard0_resumed.json artifacts/ci_shard1.json \
      --out artifacts/ci_resumed_report.json \
      --metrics-out artifacts/ci_resumed_telemetry.json > /dev/null &&
    cmp artifacts/robustness_smoke.json artifacts/ci_resumed_report.json &&
    echo "resumed shard merges to the byte-identical report"
}

# Certificate gate for the perception-error-profile layer:
# (a) the v4 report — per-cell certificates and the blind-burst
#     head-to-head included — must be byte-identical between
#     --threads 1 and --threads 4 (the ℓ₁-gain accumulation is
#     sequential f64, so worker count must not leak into margins),
# (b) the 2-shard merge from gate-shard-equivalence must carry the
#     same certificate bytes (cmp against the smoke report),
# (c) every campaign cell must carry a fitted-profile certificate, and
# (d) the pinned Case-3 blind burst must conclude that observer
#     coasting beats hold-and-extrapolate.
gate_certificates() {
  ./target/release/robustness_campaign \
    --quick --seed 7 --threads 4 --out artifacts/ci_cert_t4.json > /dev/null &&
    cmp artifacts/robustness_smoke.json artifacts/ci_cert_t4.json &&
    echo "certificate report is byte-identical across 1-vs-4 worker threads" &&
    cmp artifacts/robustness_smoke.json artifacts/ci_sharded_report.json &&
    echo "certificate report is byte-identical across the 2-shard merge" &&
    ! grep -q '"certificate": null' artifacts/robustness_smoke.json &&
    ! grep -q '"worst_certificate": null' artifacts/robustness_smoke.json &&
    echo "every campaign cell carries a certificate margin" &&
    grep -q '"observer_beats_hold": true' artifacts/robustness_smoke.json &&
    echo "observer coasting beats hold-and-extrapolate on the blind burst"
}

# Tuner-equivalence gate for the online re-characterization layer:
# (a) with exploration disabled the tuned loop must be byte-identical
#     to the frozen-table loop (the drift report is purely behavioral,
#     so `cmp` proves the tuner changed nothing),
# (b) the default tuned run must be reproducible across invocations at
#     a fixed seed, and
# (c) under the drifted sensor the tuned loop must strictly beat the
#     frozen table (exit non-zero otherwise).
gate_tuner_equivalence() {
  ./target/release/robustness_campaign \
    drift --quick --seed 7 --knobs static --out artifacts/ci_drift_static.json &&
    ./target/release/robustness_campaign \
      drift --quick --seed 7 --knobs tuned --epsilon 0 --out artifacts/ci_drift_eps0.json &&
    cmp artifacts/ci_drift_static.json artifacts/ci_drift_eps0.json &&
    echo "exploration-disabled tuner is byte-identical to the frozen table" &&
    ./target/release/robustness_campaign \
      drift --quick --seed 7 --knobs tuned --out artifacts/ci_drift_tuned_a.json &&
    ./target/release/robustness_campaign \
      drift --quick --seed 7 --knobs tuned --out artifacts/ci_drift_tuned_b.json &&
    cmp artifacts/ci_drift_tuned_a.json artifacts/ci_drift_tuned_b.json &&
    echo "tuned drift report is reproducible at a fixed seed" &&
    ./target/release/robustness_campaign \
      drift --quick --seed 7 --compare
}

# Stream-equivalence gate for the per-cycle telemetry bus:
# (a) folding the streamed CycleDelta capture must reproduce the
#     end-of-run telemetry snapshot byte-for-byte (the stream carries
#     every raw sample and counter increment, losslessly) — for the
#     static run and for the tuned run, whose loop also hands each
#     sealed cycle to the tuner,
# (b) the deterministic stream (no wall-clock samples attached) must be
#     byte-identical across tile-thread counts, and
# (c) a tuned run at eps=0 with a stream attached must still be
#     byte-identical to the frozen-table drift report from
#     gate-tuner-equivalence.
gate_stream_equivalence() {
  ./target/release/robustness_campaign \
    drift --quick --seed 7 --knobs static \
    --stream-out artifacts/ci_stream_static.jsonl \
    --metrics-out artifacts/ci_stream_metrics.json \
    --out artifacts/ci_stream_report.json > /dev/null &&
    ./target/release/telemetry_report \
      fold artifacts/ci_stream_static.jsonl --out artifacts/ci_stream_folded.json &&
    cmp artifacts/ci_stream_metrics.json artifacts/ci_stream_folded.json &&
    echo "folded per-cycle stream is byte-identical to the end-of-run snapshot" &&
    ./target/release/robustness_campaign \
      drift --quick --seed 7 --knobs tuned \
      --stream-out artifacts/ci_stream_tuned.jsonl \
      --metrics-out artifacts/ci_stream_tuned_metrics.json > /dev/null &&
    ./target/release/telemetry_report \
      fold --out artifacts/ci_stream_tuned_folded.json artifacts/ci_stream_tuned.jsonl &&
    cmp artifacts/ci_stream_tuned_metrics.json artifacts/ci_stream_tuned_folded.json &&
    echo "folded tuned stream is byte-identical to the end-of-run snapshot" &&
    ./target/release/robustness_campaign \
      drift --quick --seed 7 --knobs static --tile-threads 1 \
      --stream-out artifacts/ci_stream_t1.jsonl > /dev/null &&
    ./target/release/robustness_campaign \
      drift --quick --seed 7 --knobs static --tile-threads 4 \
      --stream-out artifacts/ci_stream_t4.jsonl > /dev/null &&
    cmp artifacts/ci_stream_t1.jsonl artifacts/ci_stream_t4.jsonl &&
    echo "per-cycle stream is byte-identical across tile-thread counts" &&
    ./target/release/robustness_campaign \
      drift --quick --seed 7 --knobs tuned --epsilon 0 \
      --stream-out artifacts/ci_stream_eps0.jsonl \
      --out artifacts/ci_drift_stream_eps0.json > /dev/null &&
    cmp artifacts/ci_drift_static.json artifacts/ci_drift_stream_eps0.json &&
    echo "tuned run at eps=0 with a stream attached reproduces the frozen-table report"
}

# Fleet-service smoke gate: boot the daemon on an ephemeral port,
# submit the quick campaign twice through fleetctl, and require
# (a) the cold payload to be byte-identical to the single-process
#     smoke report (the fleet path runs the same grid through
#     `build_job`),
# (b) the second submission to be served from the fingerprint cache
#     with identical bytes, and
# (c) a capacity-0 daemon to reject a submission through admission
#     control (exit code 3) instead of hanging or crashing.
gate_fleet_smoke() {
  rm -f artifacts/ci_fleetd.log artifacts/ci_fleet_cold.json artifacts/ci_fleet_warm.json
  ./target/release/fleetd --addr 127.0.0.1:0 --workers 1 \
    > artifacts/ci_fleetd.log 2>> artifacts/ci_fleetd.log &
  local daemon=$!
  FLEETD_PIDS+=("$daemon")
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^fleetd listening on //p' artifacts/ci_fleetd.log)
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "error: fleetd did not report its address"
    cleanup_fleetd
    return 1
  fi
  local spec='{"kind": "campaign", "seed": 7, "quick": true}'
  local ok=0
  ./target/release/fleetctl submit --addr "$addr" --spec "$spec" \
    --out artifacts/ci_fleet_cold.json 2> artifacts/ci_fleet_cold.err &&
    grep -q 'cached: false' artifacts/ci_fleet_cold.err &&
    cmp artifacts/robustness_smoke.json artifacts/ci_fleet_cold.json &&
    echo "fleet campaign payload is byte-identical to the single-process report" &&
    ./target/release/fleetctl submit --addr "$addr" --spec "$spec" \
      --out artifacts/ci_fleet_warm.json 2> artifacts/ci_fleet_warm.err &&
    grep -q 'cached: true' artifacts/ci_fleet_warm.err &&
    cmp artifacts/ci_fleet_cold.json artifacts/ci_fleet_warm.json &&
    echo "repeat submission served from the fingerprint cache, identical bytes" ||
    ok=1
  ./target/release/fleetctl shutdown --addr "$addr" > /dev/null || ok=1
  wait "$daemon" || ok=1
  [ "$ok" -eq 0 ] || {
    cleanup_fleetd
    return 1
  }

  # Admission control: a zero-capacity daemon must reject, not hang.
  ./target/release/fleetd --addr 127.0.0.1:0 --queue-capacity 0 \
    > artifacts/ci_fleetd0.log 2>> artifacts/ci_fleetd0.log &
  local daemon0=$!
  FLEETD_PIDS+=("$daemon0")
  addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^fleetd listening on //p' artifacts/ci_fleetd0.log)
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "error: zero-capacity fleetd did not report its address"
    cleanup_fleetd
    return 1
  fi
  ./target/release/fleetctl submit --addr "$addr" --spec "$spec" \
    2> artifacts/ci_fleet_reject.err
  local code=$?
  if [ "$code" -ne 3 ] || ! grep -q 'rejected:' artifacts/ci_fleet_reject.err; then
    echo "error: expected admission rejection (exit 3), got exit $code"
    ./target/release/fleetctl shutdown --addr "$addr" > /dev/null
    cleanup_fleetd
    return 1
  fi
  echo "zero-capacity daemon rejected the submission through admission control"
  ./target/release/fleetctl shutdown --addr "$addr" > /dev/null &&
    wait "$daemon0"
}

# Kernel-equivalence gate: Scalar vs Lanes across every ISP
# configuration, perception ROI, and a fixed-seed classifier window set
# (bit-identity of the two backends, batched ≡ sequential inference).
# See DESIGN.md §17.
gate_kernel_equivalence() {
  ./target/release/kernel_equivalence
}

# ISP throughput gate: re-measure the pooled lane-backend frame path and
# fail if any config (or the perception pipeline) regressed past a
# generous multiple of the checked-in baseline. Like gate-telemetry,
# this catches order-of-magnitude regressions, not scheduler noise.
gate_isp_throughput() {
  ./target/release/isp_throughput check \
    --baseline BENCH_isp_baseline.json --max-rel 4 --iters 15
}

# Zero-allocation gate: the steady-state frame path (render → capture →
# ISP → perception into pooled buffers) must not touch the heap after
# warm-up, and the tiled path must stay bit-identical.
gate_zero_alloc() {
  cargo test --release -p lkas-suite --test zero_alloc -q
}

# Benchmark-API gate: the closed-loop benchmark under hilbench/ is a
# separate package that builds against the library crates' public API
# and is never edited alongside them. A public-API change that breaks it
# fails here instead of at benchmark time.
gate_hilbench_api() {
  cargo check --offline --manifest-path hilbench/Cargo.toml --all-targets
}

# Benchmark-pins gate: one untraced pass of every hilbench workload at
# seed 1 (about a minute after the build). Each run checks its outcomes
# against the pins in hilbench/expected.json and exits non-zero when one
# moves, so a behaviour change fails here instead of at benchmark time.
gate_hilbench_pins() {
  local w status=0
  mkdir -p artifacts
  for w in fig8-oracle fig8-trained characterize fault-grid; do
    if bash hilbench/run.sh --workload "$w" --seed 1 --seconds 0 --trace 0 \
      > "artifacts/ci_hilbench_$w.log" 2>&1; then
      echo "$w: pins hold"
    else
      echo "error: hilbench $w failed (artifacts/ci_hilbench_$w.log):"
      tail -n 20 "artifacts/ci_hilbench_$w.log"
      status=1
    fi
  done
  return "$status"
}

# Hygiene gate: generated outputs must never be git-tracked, and the
# directories that hold them must be ignored.
gate_hygiene() {
  local tracked
  tracked=$(git ls-files -- artifacts logs)
  if [ -n "$tracked" ]; then
    echo "error: generated outputs are git-tracked:"
    echo "$tracked"
    return 1
  fi
  grep -qx '/artifacts/' .gitignore || {
    echo "error: .gitignore lacks /artifacts/"
    return 1
  }
  grep -qx '/logs/' .gitignore || {
    echo "error: .gitignore lacks /logs/"
    return 1
  }
  echo "no generated outputs tracked; artifacts/ and logs/ ignored"
}

stage fmt cargo fmt --check
stage gate-clippy cargo clippy --workspace --all-targets -- -D warnings
stage build build_all
stage test cargo test -q --workspace
stage gate-kernel-equivalence gate_kernel_equivalence
stage smoke-robustness smoke_robustness
stage gate-telemetry gate_telemetry
stage gate-isp-throughput gate_isp_throughput
stage gate-shard-equivalence gate_shard_equivalence
stage gate-certificates gate_certificates
stage gate-tuner-equivalence gate_tuner_equivalence
stage gate-stream-equivalence gate_stream_equivalence
stage gate-fleet-smoke gate_fleet_smoke
stage gate-zero-alloc gate_zero_alloc
stage gate-hilbench-api gate_hilbench_api
stage gate-hilbench-pins gate_hilbench_pins
stage gate-hygiene gate_hygiene

echo
echo "== CI summary =="
for i in "${!STAGES[@]}"; do
  printf '  %-24s %5ss  %s\n' "${STAGES[$i]}" "${TIMES[$i]}" "${RESULTS[$i]}"
done
if [ "$FAILED" -ne 0 ]; then
  echo "CI: FAILED (at least one stage failed)"
else
  echo "CI: PASSED"
fi
exit "$FAILED"
