#!/usr/bin/env bash
# Per-push check of apf_sim's sharding flags (sim/shard.h, docs/API.md) on
# a small campaign:
#
#  1. Two `--shard i/2` processes plus `--merge` print a --json document
#     and leave a journal byte-identical to an APF_JOBS=1 single-process
#     campaign; the merge replays every run and re-executes none.
#  2. A second apf_sim on a journal whose lock is held exits 4.
#  3. `--merge` naming a journal that does not exist exits non-zero.
#
# Usage: shard_cli_test.sh path/to/apf_sim workdir
set -u

SIM=${1:?usage: shard_cli_test.sh path/to/apf_sim workdir}
WORK=${2:?usage: shard_cli_test.sh path/to/apf_sim workdir}
rm -rf "$WORK"
mkdir -p "$WORK"
fail() { echo "shard_cli_test: FAIL: $*" >&2; exit 1; }

ARGS=(--algo form --n 7 --campaign 6 --seed 3 --max-events 4000 --json)

APF_JOBS=1 "$SIM" "${ARGS[@]}" --journal "$WORK/full.journal" \
  > "$WORK/full.json" || fail "single-process campaign failed"

for i in 0 1; do
  "$SIM" "${ARGS[@]}" --shard "$i/2" --journal "$WORK/s$i.journal" \
    > /dev/null || fail "shard $i/2 failed"
done
"$SIM" "${ARGS[@]}" --merge "$WORK/s0.journal,$WORK/s1.journal" \
  --journal "$WORK/merged.journal" --quarantine "$WORK/merged.report.json" \
  > "$WORK/merged.json" || fail "--merge failed"
grep -q '"completed":0,"replayed":6,' "$WORK/merged.report.json" ||
  fail "--merge re-executed runs instead of replaying all 6"
cmp "$WORK/merged.json" "$WORK/full.json" ||
  fail "merged --json differs from single-process"
cmp "$WORK/merged.journal" "$WORK/full.journal" ||
  fail "merged journal differs from single-process"
echo "OK: 2 shards + --merge byte-identical to single-process"

flock -n "$WORK/full.journal.lock" \
  "$SIM" "${ARGS[@]}" --resume "$WORK/full.journal" > /dev/null 2>&1
RC=$?
[ "$RC" -eq 4 ] || fail "apf_sim on a held journal lock exited $RC, want 4"
echo "OK: held journal lock exits 4"

"$SIM" "${ARGS[@]}" --merge "$WORK/s0.journal,$WORK/no_such.journal" \
  --journal "$WORK/typo.journal" > /dev/null 2>&1 &&
  fail "--merge with a missing journal succeeded"
echo "OK: --merge with a missing journal refused"

echo "shard_cli_test: PASS"
