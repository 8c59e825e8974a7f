#!/usr/bin/env bash
# Runs every workload once per seed, each in its own process, and appends
# every run's record to a JSON-lines file for `-compare`:
#
#   bash benchmark/suite.sh benchmark/out/a.jsonl          # seeds 1..10
#   bash benchmark/suite.sh benchmark/out/b.jsonl 11 20    # seeds 11..20
#   bash benchmark/run.sh -compare benchmark/out/a.jsonl benchmark/out/b.jsonl
#
# SECONDS_PER_RUN (default: run_seconds of BENCHMARK.json, 20) and TRACE
# (default 0) override the window and the mode.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:?usage: suite.sh out.jsonl [first_seed [last_seed]]}"
first="${2:-1}"
last="${3:-$((first + 9))}"
mkdir -p "$(dirname "$out")"
for workload in cold_cg buffered_cg onthefly_sg fleet_mix; do
  for seed in $(seq "$first" "$last"); do
    bash benchmark/run.sh --workload "$workload" --seed "$seed" \
      --seconds "${SECONDS_PER_RUN:-20}" --trace "${TRACE:-0}" --out "$out" | tail -n 1
  done
done
