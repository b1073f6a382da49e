#!/usr/bin/env bash
# Per-push check of apf_sim's campaign path (sim/campaign_spec.h,
# docs/RESILIENCE.md) on a small campaign:
#
#  1. The journal and --json document are byte-identical at APF_JOBS=1
#     and APF_JOBS=2.
#  2. A journal cut to its header plus two entries, with a torn half line
#     appended, resumes to the same --json and journal bytes, replaying
#     the two journaled runs and executing only the other four.
#  3. A second apf_sim on a journal whose lock is held exits 4.
#  4. Campaign flags that would do nothing (--journal, --resume or
#     --quarantine without --campaign; --journal with --resume) and the
#     removed --shard/--merge options exit 2, writing no journal.
#  5. Single-run outputs that a campaign would not write (--svg, --trace,
#     --repro-out with --campaign) and --shrink without --repro-out exit 2,
#     writing nothing.
#
# Usage: campaign_cli_test.sh path/to/apf_sim workdir
set -u

SIM=${1:?usage: campaign_cli_test.sh path/to/apf_sim workdir}
WORK=${2:?usage: campaign_cli_test.sh path/to/apf_sim workdir}
rm -rf "$WORK"
mkdir -p "$WORK"
fail() { echo "campaign_cli_test: FAIL: $*" >&2; exit 1; }

# expect RC CMD...: runs CMD quietly and requires exit code RC.
expect() {
  local want=$1
  shift
  "$@" > /dev/null 2> "$WORK/stderr"
  local rc=$?
  [ "$rc" -eq "$want" ] || fail "exit $rc, want $want: $*"
}

ARGS=(--algo form --n 7 --campaign 6 --seed 3 --max-events 4000 --json)

for JOBS in 1 2; do
  APF_JOBS=$JOBS "$SIM" "${ARGS[@]}" --journal "$WORK/j$JOBS.journal" \
    > "$WORK/j$JOBS.json" || fail "campaign failed (APF_JOBS=$JOBS)"
done
cmp "$WORK/j2.json" "$WORK/j1.json" ||
  fail "--json differs between APF_JOBS=1 and 2"
cmp "$WORK/j2.journal" "$WORK/j1.journal" ||
  fail "journal differs between APF_JOBS=1 and 2"
echo "OK: journal and --json byte-identical at APF_JOBS=1 and 2"

head -n 3 "$WORK/j1.journal" > "$WORK/cut.journal"
printf '{"i":9999,"payl' >> "$WORK/cut.journal"
APF_JOBS=2 "$SIM" "${ARGS[@]}" --resume "$WORK/cut.journal" \
  --quarantine "$WORK/cut.report.json" > "$WORK/cut.json" ||
  fail "--resume of a cut journal failed"
grep -q '"completed":4,"replayed":2,' "$WORK/cut.report.json" ||
  fail "--resume did not replay 2 runs and execute 4"
cmp "$WORK/cut.json" "$WORK/j1.json" ||
  fail "resumed --json differs from uninterrupted"
cmp "$WORK/cut.journal" "$WORK/j1.journal" ||
  fail "resumed journal differs from uninterrupted"
echo "OK: cut + torn journal resumes byte-identical, 2 replayed, 4 run"

flock -n "$WORK/j1.journal.lock" \
  "$SIM" "${ARGS[@]}" --resume "$WORK/j1.journal" > /dev/null 2>&1
RC=$?
[ "$RC" -eq 4 ] || fail "apf_sim on a held journal lock exited $RC, want 4"
echo "OK: held journal lock exits 4"

for opt in "--shard 0/2" "--merge x"; do
  # shellcheck disable=SC2086
  expect 2 "$SIM" "${ARGS[@]}" $opt --journal "$WORK/gone.journal"
  grep -q "unknown option" "$WORK/stderr" ||
    fail "$opt was not refused as an unknown option"
done
echo "OK: --shard and --merge are unknown options"

ONE=(--algo form --n 7 --max-events 2000)
expect 2 "$SIM" "${ONE[@]}" --journal "$WORK/single.journal"
expect 2 "$SIM" "${ONE[@]}" --resume "$WORK/j1.journal"
expect 2 "$SIM" "${ONE[@]}" --quarantine "$WORK/single.report.json"
expect 2 "$SIM" "${ONE[@]}" --campaign 2 --journal "$WORK/both.journal" \
  --resume "$WORK/cut.journal"
for f in gone.journal single.journal single.report.json both.journal; do
  [ ! -e "$WORK/$f" ] || fail "a refused command wrote $f"
done
echo "OK: campaign flags that would do nothing exit 2"

CAMP=(--algo form --n 7 --campaign 2 --max-events 2000)
expect 2 "$SIM" "${CAMP[@]}" --svg "$WORK/c.svg"
expect 2 "$SIM" "${CAMP[@]}" --trace "$WORK/c.csv"
expect 2 "$SIM" "${CAMP[@]}" --trace "$WORK/c.json"
expect 2 "$SIM" "${CAMP[@]}" --repro-out "$WORK/c.repro.json"
expect 2 "$SIM" "${CAMP[@]}" --repro-out "$WORK/s.repro.json" --shrink
expect 2 "$SIM" "${CAMP[@]}" --shrink
expect 2 "$SIM" "${ONE[@]}" --shrink
for f in c.svg c.csv c.json c.repro.json s.repro.json; do
  [ ! -e "$WORK/$f" ] || fail "a refused command wrote $f"
done
echo "OK: single-run outputs with --campaign, and --shrink alone, exit 2"

echo "campaign_cli_test: PASS"
