#!/usr/bin/env bash
# Golden CSV check: regenerates the decision-level result tables and
# byte-compares them with the tracked copies under results/.
#
# These benches report only deterministic counts (success tallies, cycles,
# events, random bits, phase activations, detection tallies), so any change
# that keeps every robot decision must reproduce their fourteen CSVs byte
# for byte:
#
#   bench_election.csv  bench_election_cdf.csv  bench_formation.csv
#   bench_formation_symmetric.csv  bench_phases.csv  bench_chirality.csv
#   bench_delta.csv  bench_determinism.csv  bench_randbits.csv
#   bench_scattering.csv  bench_scheduler.csv  bench_detection.csv
#   bench_faults.csv  bench_multiplicity.csv
#
# bench_detection checks Definitions 1-3 on generated corpora, whole-config
# shifted sets included; bench_faults runs on noisy snapshots, which make
# near-grids; bench_multiplicity forms patterns with multiplicity points.
#
# Usage: golden_csv_check.sh BUILD_DIR   (run from the repository root;
#        takes about two minutes on 4 cores, most of it bench_faults)
set -u

BUILD=${1:?usage: golden_csv_check.sh BUILD_DIR}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

for bench in bench_election bench_formation bench_phases bench_chirality \
             bench_delta bench_determinism bench_randbits bench_scattering \
             bench_scheduler bench_detection bench_faults bench_multiplicity; do
  echo "== $bench =="
  APF_RESULTS_DIR="$OUT" "$BUILD/bench/$bench" > "$OUT/$bench.log" 2>&1 || {
    cat "$OUT/$bench.log" >&2
    echo "golden_csv_check: FAIL: $bench exited nonzero" >&2
    exit 1
  }
done

status=0
for csv in bench_election.csv bench_election_cdf.csv bench_formation.csv \
           bench_formation_symmetric.csv bench_phases.csv bench_chirality.csv \
           bench_delta.csv bench_determinism.csv bench_randbits.csv \
           bench_scattering.csv bench_scheduler.csv bench_detection.csv \
           bench_faults.csv bench_multiplicity.csv; do
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
