#!/usr/bin/env bash
# apf_sim --replay must refuse a malformed .repro.json with exit 2 and a
# reason, instead of replaying whatever it could read and reporting the
# run "clean". Each case edits one valid --repro-out capture:
#   * the start is cut to 7 points against the 8-point pattern;
#   * a crash victim is robot 20 at n = 8 (the engine would skip it);
#   * a key the repro schema does not know (a campaign spec's
#     "watchdog_events") is added.
#
# Usage: replay_cli_test.sh path/to/apf_sim WORKDIR
set -u

SIM=${1:?usage: replay_cli_test.sh path/to/apf_sim WORKDIR}
WORK=${2:?usage: replay_cli_test.sh path/to/apf_sim WORKDIR}
fail() { echo "replay_cli_test: FAIL: $*" >&2; exit 1; }

rm -rf "$WORK"
mkdir -p "$WORK"
OK="$WORK/ok.repro.json"

# A valid capture with one crash entry; its replay is the run's own verdict
# (exit 0 or 1), never a usage error.
"$SIM" --algo form --n 8 --seed 2 --crash 1 --max-events 4000 --quiet \
  --repro-out "$OK" > /dev/null 2>&1
[ -s "$OK" ] || fail "--repro-out wrote nothing"
"$SIM" --replay "$OK" > /dev/null 2>&1
[ $? -le 1 ] || fail "the unedited capture was refused"
echo "OK: a valid capture replays"

# refused NAME SED_EXPR: applies SED_EXPR to the capture and requires
# --replay to exit 2 with a message on stderr.
refused() {
  local name=$1 expr=$2 file="$WORK/$1.repro.json"
  sed "$expr" "$OK" > "$file"
  cmp -s "$OK" "$file" && fail "$name: the edit changed nothing"
  "$SIM" --replay "$file" > "$WORK/$name.out" 2> "$WORK/$name.err"
  local rc=$?
  [ "$rc" -eq 2 ] || fail "$name: exit $rc, want 2 ($(cat "$WORK/$name.out"))"
  [ -s "$WORK/$name.err" ] || fail "$name: exit 2 without a reason"
  echo "OK: $name refused: $(cat "$WORK/$name.err")"
}

refused short_start 's/"start":\[\[[^]]*\],/"start":[/'
refused crash_victim 's/"robot":[0-9]*/"robot":20/'
refused unknown_key 's/^{/{"watchdog_events":5,/'

echo "replay_cli_test: PASS"
