#!/usr/bin/env bash
# Per-push check that apf_sim and apf_estimate accept exactly the generated
# starts sim::validate allows ("random", and "symmetric" with an
# even n >= 4) and exit 2 on anything else, in single-run, campaign and
# estimation mode alike; and that an unknown --pattern name or a missing
# --pattern-file / --start-file is a usage error (exit 2) too.
#
# Usage: start_cli_test.sh path/to/apf_sim path/to/apf_estimate
set -u

SIM=${1:?usage: start_cli_test.sh path/to/apf_sim path/to/apf_estimate}
EST=${2:?usage: start_cli_test.sh path/to/apf_sim path/to/apf_estimate}
fail() { echo "start_cli_test: FAIL: $*" >&2; exit 1; }

# expect RC CMD...: runs CMD quietly and requires exit code RC.
expect() {
  local want=$1
  shift
  "$@" > /dev/null 2>&1
  local rc=$?
  [ "$rc" -eq "$want" ] || fail "exit $rc, want $want: $*"
}

SIM_RUN=(--algo form --max-events 4000 --quiet)
EST_RUN=(--max-events 4000 --batch 4 --min-samples 4 --max-samples 4 --quiet)

for bad in "--start symetric --n 8" "--start symmetric --n 9" \
           "--start symmetric --n 2" "--start Random --n 8"; do
  # shellcheck disable=SC2086
  expect 2 "$SIM" "${SIM_RUN[@]}" $bad
  # shellcheck disable=SC2086
  expect 2 "$SIM" "${SIM_RUN[@]}" $bad --campaign 2
  # shellcheck disable=SC2086
  expect 2 "$EST" "${EST_RUN[@]}" $bad
done
echo "OK: misspelled starts and symmetric with odd or small n exit 2"

# The accepted starts still run (exit 0 or 1 is the run's own verdict).
for good in "--start symmetric --n 8" "--start random --n 7"; do
  # shellcheck disable=SC2086
  "$SIM" "${SIM_RUN[@]}" $good > /dev/null 2>&1
  [ $? -le 1 ] || fail "apf_sim $good refused"
  # shellcheck disable=SC2086
  "$SIM" "${SIM_RUN[@]}" $good --campaign 2 > /dev/null 2>&1
  [ $? -le 1 ] || fail "apf_sim $good --campaign 2 refused"
  # shellcheck disable=SC2086
  expect 0 "$EST" "${EST_RUN[@]}" $good
done
echo "OK: random and symmetric starts with an even n run"

MISSING=/nonexistent-apf-dir/points.txt
expect 2 "$SIM" "${SIM_RUN[@]}" --pattern nosuch
expect 2 "$SIM" "${SIM_RUN[@]}" --pattern nosuch --campaign 2
expect 2 "$EST" "${EST_RUN[@]}" --pattern nosuch
expect 2 "$SIM" "${SIM_RUN[@]}" --pattern-file "$MISSING"
expect 2 "$SIM" "${SIM_RUN[@]}" --start-file "$MISSING"
echo "OK: unknown patterns and missing point files exit 2"

echo "start_cli_test: PASS"
