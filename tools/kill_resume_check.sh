#!/usr/bin/env bash
# Kill-and-resume resilience check (docs/RESILIENCE.md, run nightly by CI):
#
#  1. Runs a journaled apf_sim campaign to completion (the reference).
#  2. Starts the identical campaign on a fresh journal, SIGKILLs it
#     mid-flight (no destructors, no flush beyond the journal's own fsync),
#     appends a torn half-written line to simulate dying mid-append, and
#     resumes with --resume.
#  3. Requires the resumed run's --json document AND its journal file to be
#     byte-identical to the uninterrupted run's, at APF_JOBS=1 and 4.
#  4. Shard drills (sim/shard.h, docs/API.md): runs the same campaign as
#     four `--shard i/4` processes and merges their journals with
#     `--merge`, requiring the merged output and journal to be
#     byte-identical to the single-process reference — uninterrupted, and
#     after SIGKILLing one shard process mid-slice, tearing its journal's
#     tail, and rerunning that shard with --resume.
#  5. Exercises the failure-repro chain end to end: provokes a safety
#     violation with extreme snapshot noise, shrinks it to a .repro.json,
#     and requires `apf_sim --replay` to reproduce it (exit 0).
#
# Usage: kill_resume_check.sh path/to/apf_sim [workdir]
set -u

SIM=${1:?usage: kill_resume_check.sh path/to/apf_sim [workdir]}
WORK=${2:-$(mktemp -d)}
mkdir -p "$WORK"
fail() { echo "kill_resume_check: FAIL: $*" >&2; exit 1; }

# Noisy runs never end by quiescence, so every run burns its whole event
# budget — slow enough that the SIGKILL reliably lands mid-campaign.
ARGS=(--algo form --n 8 --campaign 24 --seed 5 --noise 0.05 --max-events 30000 --json)

echo "== reference: uninterrupted journaled campaign =="
APF_JOBS=1 "$SIM" "${ARGS[@]}" --journal "$WORK/full.journal" \
  > "$WORK/full.json" || fail "reference campaign failed"
REF_LINES=$(wc -l < "$WORK/full.journal")
echo "reference journal: $REF_LINES lines"

for JOBS in 1 4; do
  echo "== kill and resume (APF_JOBS=$JOBS) =="
  rm -f "$WORK/killed.journal"
  APF_JOBS=$JOBS "$SIM" "${ARGS[@]}" --journal "$WORK/killed.journal" \
    > /dev/null 2>&1 &
  PID=$!
  # Wait for a few fsync'd entries (header + >= 4 runs), then SIGKILL.
  for _ in $(seq 1 400); do
    [ -f "$WORK/killed.journal" ] &&
      [ "$(wc -l < "$WORK/killed.journal")" -ge 5 ] && break
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.05
  done
  if kill -9 "$PID" 2>/dev/null; then
    wait "$PID" 2>/dev/null
    echo "killed pid $PID with $(wc -l < "$WORK/killed.journal") journal lines"
    # Dying mid-append leaves a torn, unterminated last line; simulate the
    # worst case explicitly so resume always exercises the recovery path.
    printf '{"i":9999,"payl' >> "$WORK/killed.journal"
  else
    wait "$PID" 2>/dev/null
    echo "WARN: campaign finished before the kill landed; resume will replay all"
  fi

  APF_JOBS=$JOBS "$SIM" "${ARGS[@]}" --resume "$WORK/killed.journal" \
    > "$WORK/resumed.json" || fail "resume failed (APF_JOBS=$JOBS)"
  cmp -s "$WORK/resumed.json" "$WORK/full.json" ||
    fail "resumed --json differs from uninterrupted (APF_JOBS=$JOBS)"
  cmp -s "$WORK/killed.journal" "$WORK/full.journal" ||
    fail "resumed journal bytes differ from uninterrupted (APF_JOBS=$JOBS)"
  echo "OK: resumed output and journal byte-identical (APF_JOBS=$JOBS)"
done

# Runs shard $1 of 4 into $WORK/$2.s$1.journal in the background.
launch_shard() {
  APF_JOBS=1 "$SIM" "${ARGS[@]}" --shard "$1/4" \
    --journal "$WORK/$2.s$1.journal" > /dev/null 2>&1 &
  PIDS[$1]=$!
}
# Merges the four $WORK/$1.s*.journal files and byte-compares the result
# with the single-process reference.
merge_and_compare() {
  local LIST
  LIST=$(printf '%s,' "$WORK/$1".s{0,1,2,3}.journal)
  APF_JOBS=1 "$SIM" "${ARGS[@]}" --journal "$WORK/$1.journal" \
    --merge "${LIST%,}" > "$WORK/$1.json" || fail "--merge failed ($1)"
  cmp -s "$WORK/$1.json" "$WORK/full.json" ||
    fail "merged --json differs from single-process ($1)"
  cmp -s "$WORK/$1.journal" "$WORK/full.journal" ||
    fail "merged journal differs from single-process ($1)"
}

echo "== sharded: four shard processes, then --merge =="
rm -f "$WORK"/shards.*
for I in 0 1 2 3; do launch_shard "$I" shards; done
for I in 0 1 2 3; do wait "${PIDS[$I]}" || fail "shard $I/4 failed"; done
merge_and_compare shards
echo "OK: 4-shard merged output and journal byte-identical to single-process"

echo "== sharded: SIGKILL one shard mid-slice, resume it, merge =="
rm -f "$WORK"/skill.*
for I in 0 1 2 3; do launch_shard "$I" skill; done
# Shard 0 owns 6 runs; wait for its header plus two fsync'd runs.
for _ in $(seq 1 400); do
  [ -f "$WORK/skill.s0.journal" ] &&
    [ "$(wc -l < "$WORK/skill.s0.journal")" -ge 3 ] && break
  kill -0 "${PIDS[0]}" 2>/dev/null || break
  sleep 0.05
done
if kill -9 "${PIDS[0]}" 2>/dev/null; then
  wait "${PIDS[0]}" 2>/dev/null
  echo "killed shard 0 with $(wc -l < "$WORK/skill.s0.journal") journal lines"
  printf '{"i":9999,"payl' >> "$WORK/skill.s0.journal"
else
  wait "${PIDS[0]}" 2>/dev/null
  echo "WARN: shard 0 finished before the kill landed; resume will replay all"
fi
for I in 1 2 3; do wait "${PIDS[$I]}" || fail "shard $I/4 failed"; done
APF_JOBS=1 "$SIM" "${ARGS[@]}" --shard 0/4 \
  --resume "$WORK/skill.s0.journal" > /dev/null || fail "shard 0 resume failed"
merge_and_compare skill
echo "OK: killed shard resumed; merged output still byte-identical"

echo "== repro chain: provoke -> shrink -> replay =="
# Extreme snapshot noise (sigma 8 on a diameter-10 configuration) reliably
# breaks SEC stability; exit 1 just means "pattern not formed", which is
# expected here — the artifact is the shrunken .repro.json.
"$SIM" --algo form --n 8 --seed 1 --noise 8.0 --max-events 40000 \
  --repro-out "$WORK/case.repro.json" --shrink > /dev/null
RC=$?
[ "$RC" -le 1 ] || fail "repro-provoking run exited $RC"
[ -s "$WORK/case.repro.json" ] || fail "no .repro.json written"
"$SIM" --replay "$WORK/case.repro.json" ||
  fail "minimized repro did not replay its violation"
echo "OK: shrunken repro replays its safety violation"

echo "kill_resume_check: PASS"
