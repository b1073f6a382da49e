#!/usr/bin/env bash
# Golden output check: regenerates the decision-level result tables, two
# campaign documents and one estimate document and byte-compares them with
# the tracked copies under results/.
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
# The benches run at APF_JOBS=4, so their cells go through the campaign
# pool even on a one-core runner (ctest's bench_golden also runs three of
# them at APF_JOBS=1).
#
# It then reruns two supervised campaigns, `apf_sim --campaign 24 --json`,
# at APF_JOBS=1 and at APF_JOBS=4, and byte-compares all four documents with
# results/campaign24_n8_seed3.json and
# results/campaign24_n16_symmetric_seed5.json: the pool must give the same
# document at any job count. The n = 16 symmetric campaign keeps its run
# that ends in a safety_violation (seed 10, a psi_DPF collision; ROADMAP
# item 2) on purpose: the golden pins that outcome too, so mending the
# collision shows up here as an intended diff.
#
# Last, it reruns one adaptive estimate, `apf_estimate --algo form
# --chirality --n 8 --sched async --seed 5 --quiet` (3 batches, 48
# samples), at the same two job counts and byte-compares both documents
# with results/estimate_form_n8_seed5.json.
#
# Usage: golden_csv_check.sh BUILD_DIR   (run from the repository root;
#        needs the benches, apf_sim and apf_estimate built). On a 4-vCPU
#        VM with a Release build it took 48 s: 42 s for the twelve benches,
#        32 s of that bench_faults.
set -u

BUILD=${1:?usage: golden_csv_check.sh BUILD_DIR}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

for bench in bench_election bench_formation bench_phases bench_chirality \
             bench_delta bench_determinism bench_randbits bench_scattering \
             bench_scheduler bench_detection bench_faults bench_multiplicity; do
  echo "== $bench =="
  APF_JOBS=4 APF_RESULTS_DIR="$OUT" "$BUILD/bench/$bench" > "$OUT/$bench.log" 2>&1 || {
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

while read -r golden tool args; do
  for jobs in 1 4; do
    out="$OUT/jobs$jobs.$golden"
    # shellcheck disable=SC2086  # $args is a word list
    APF_JOBS=$jobs "$BUILD/tools/$tool" $args \
      < /dev/null > "$out" 2> "$OUT/$golden.log" || {
      cat "$OUT/$golden.log" >&2
      echo "golden_csv_check: FAIL: $tool $args exited nonzero" >&2
      exit 1
    }
    if cmp "$ROOT/results/$golden" "$out"; then
      echo "ok   $golden (APF_JOBS=$jobs)"
    else
      echo "DIFF $golden (APF_JOBS=$jobs)" >&2
      status=1
    fi
  done
done <<'DOCUMENTS'
campaign24_n8_seed3.json apf_sim --campaign 24 --json --n 8 --seed 3
campaign24_n16_symmetric_seed5.json apf_sim --campaign 24 --json --n 16 --pattern random --start symmetric --seed 5
estimate_form_n8_seed5.json apf_estimate --algo form --chirality --n 8 --sched async --seed 5 --quiet
DOCUMENTS

[ "$status" -eq 0 ] && echo "golden_csv_check: PASS" ||
  echo "golden_csv_check: FAIL: regenerated outputs differ from results/" >&2
exit "$status"
