#!/usr/bin/env bash
# Golden CSV check: regenerates the decision-level result tables and
# byte-compares them with the tracked copies under results/.
#
# bench_election, bench_formation and bench_phases report only
# deterministic counts (cycles, events, random bits, phase activations), so
# any change that keeps every robot decision must reproduce their five CSVs
# byte for byte:
#
#   bench_election.csv  bench_election_cdf.csv  bench_formation.csv
#   bench_formation_symmetric.csv  bench_phases.csv
#
# Usage: golden_csv_check.sh BUILD_DIR   (run from the repository root;
#        takes about a minute on 4 cores)
set -u

BUILD=${1:?usage: golden_csv_check.sh BUILD_DIR}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

for bench in bench_election bench_formation bench_phases; do
  echo "== $bench =="
  APF_RESULTS_DIR="$OUT" "$BUILD/bench/$bench" > "$OUT/$bench.log" 2>&1 || {
    cat "$OUT/$bench.log" >&2
    echo "golden_csv_check: FAIL: $bench exited nonzero" >&2
    exit 1
  }
done

status=0
for csv in bench_election.csv bench_election_cdf.csv bench_formation.csv \
           bench_formation_symmetric.csv bench_phases.csv; do
  if cmp "$ROOT/results/$csv" "$OUT/$csv"; then
    echo "ok   $csv"
  else
    echo "DIFF $csv" >&2
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "golden_csv_check: PASS" ||
  echo "golden_csv_check: FAIL: regenerated CSVs differ from results/" >&2
exit "$status"
