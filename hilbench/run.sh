#!/usr/bin/env bash
# Builds the HiL benchmark and runs it. See hilbench/README.md.
#
#   run.sh [--seed N] [--trace] [--smoke]      every workload, each in a fresh process
#   run.sh --sets N [--seed N] [--trace] [--against DIR]
#                                              N alternating rounds of two sets, then compare
#   run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                              one run; the last stdout line is the result JSON
#   run.sh compare BASE.jsonl NEW.jsonl
#   run.sh --repin                             rewrite the pinned outcomes (README: Re-pinning)
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-hilbench/target}"
cargo build --release --offline --quiet --manifest-path hilbench/Cargo.toml
bin="$CARGO_TARGET_DIR/release/hilbench"

case "${1:-}" in
  compare) exec "$bin" "$@" ;;
  --repin) exec "$bin" repin ;;
esac
for arg in "$@"; do
  if [ "$arg" = --workload ]; then exec "$bin" run "$@"; fi
done

workloads=(fig8-oracle fig8-trained characterize fault-grid)
seed=1 trace=0 sets=0 against="" extra=()
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift ;;
    --trace) trace=1 ;;
    --smoke) extra+=(--smoke) ;;
    --sets) sets="$2"; shift ;;
    --against) against="$(cd "$2" && pwd)"; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift
done

if [ "$sets" -eq 0 ]; then
  status=0
  for w in "${workloads[@]}"; do
    "$bin" run --workload "$w" --seed "$seed" --trace "$trace" ${extra[@]+"${extra[@]}"} || status=1
  done
  exit "$status"
fi

# Alternating sets: round i runs every workload at seed+i-1 on both
# sides, the side that goes first alternating between rounds. Side A is
# the base: the checkout given by --against, or this one again.
out=hilbench/out
mkdir -p "$out"
rm -f "$out"/set[AB].jsonl "$out"/set[AB].txt
printf '{"nproc": %s, "cpu": "%s", "commit": "%s", "against": "%s", "seed": %s, "sets": %s, "trace": %s}\n' \
  "$(nproc)" "$(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2 | sed 's/^ *//')" \
  "$(git rev-parse HEAD 2>/dev/null || echo unknown)" "$against" "$seed" "$sets" "$trace" \
  > "$out/meta.json"
run_side() { # side workload seed
  local log="$PWD/$out/set$1.jsonl"
  if [ "$1" = A ] && [ -n "$against" ]; then
    env -u CARGO_TARGET_DIR bash "$against/hilbench/run.sh" --workload "$2" --seed "$3" --trace "$trace" --log "$log"
  else
    "$bin" run --workload "$2" --seed "$3" --trace "$trace" --log "$log"
  fi
}
for ((i = 0; i < sets; i++)); do
  s=$((seed + i))
  if ((i % 2 == 0)); then order=(A B); else order=(B A); fi
  for side in "${order[@]}"; do
    for w in "${workloads[@]}"; do
      run_side "$side" "$w" "$s" >> "$out/set$side.txt" || echo "run.sh: set $side $w seed $s failed" >&2
    done
  done
done
exec "$bin" compare "$out/setA.jsonl" "$out/setB.jsonl"
