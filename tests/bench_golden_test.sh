#!/usr/bin/env bash
# Per-push check of the bench harness (bench/common.h) on three fast
# benches: bench_scheduler, bench_delta and bench_scattering run their
# cells on the campaign pool at APF_JOBS 1 and 4, and each CSV must equal
# the tracked copy under results/ byte for byte. The APF_JOBS=4 run of
# bench_delta also has APF_OBS_TRACE and APF_OBS_DIR set: it must write
# bench_delta.trace.json into the telemetry directory, and the telemetry
# must leave its CSV unchanged. Each CSV's manifest must record how many
# runs back its cells (`runs.<cell>` keys, written by bench::runCell).
# tools/golden_csv_check.sh covers all fourteen CSVs.
#
# Usage: bench_golden_test.sh BENCH_DIR RESULTS_DIR workdir
set -u

BENCH=${1:?usage: bench_golden_test.sh BENCH_DIR RESULTS_DIR workdir}
RESULTS=${2:?usage: bench_golden_test.sh BENCH_DIR RESULTS_DIR workdir}
WORK=${3:?usage: bench_golden_test.sh BENCH_DIR RESULTS_DIR workdir}
rm -rf "$WORK"
mkdir -p "$WORK"
fail() { echo "bench_golden_test: FAIL: $*" >&2; exit 1; }

for jobs in 1 4; do
  for bench in bench_scheduler bench_delta bench_scattering; do
    out="$WORK/jobs$jobs"
    mkdir -p "$out"
    env=(APF_JOBS=$jobs APF_RESULTS_DIR="$out")
    if [ "$jobs" -eq 4 ] && [ "$bench" = bench_delta ]; then
      env+=(APF_OBS_TRACE=1 APF_OBS_DIR="$WORK/obs")
    fi
    env "${env[@]}" "$BENCH/$bench" > "$out/$bench.log" 2>&1 || {
      cat "$out/$bench.log" >&2
      fail "$bench exited nonzero at APF_JOBS=$jobs"
    }
    cmp "$RESULTS/$bench.csv" "$out/$bench.csv" ||
      fail "$bench.csv differs from results/ at APF_JOBS=$jobs"
    grep -q '"runs\.' "$out/$bench.csv.manifest.json" ||
      fail "$bench.csv.manifest.json records no runs.<cell> key"
    echo "ok   $bench.csv (APF_JOBS=$jobs)"
  done
done

[ -s "$WORK/obs/bench_delta.trace.json" ] ||
  fail "APF_OBS_TRACE=1 wrote no bench_delta.trace.json"
echo "ok   bench_delta.trace.json"

echo "bench_golden_test: PASS"
