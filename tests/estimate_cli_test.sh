#!/usr/bin/env bash
# Per-push check of apf_estimate (docs/STATISTICS.md) end to end on a
# 48-sample estimate:
#
#  1. Its --manifest and --jsonl, read by apf_report, give the arm's row,
#     and the est_batches / est_converged cross-checks say OK.
#  2. A journal cut to its header plus 20 samples, with a torn half line
#     appended, resumes to the byte-identical document and journal.
#  3. A second apf_estimate on a journal whose lock is held exits 4.
#  4. The removed --ab option exits 2.
#  5. --algo scatter-form records "multiplicity":true in its manifest (and
#     so in its journal key): the algorithm turns detection on.
#
# Usage: estimate_cli_test.sh path/to/apf_estimate path/to/apf_report workdir
set -u

EST=${1:?usage: estimate_cli_test.sh apf_estimate apf_report workdir}
REPORT=${2:?usage: estimate_cli_test.sh apf_estimate apf_report workdir}
WORK=${3:?usage: estimate_cli_test.sh apf_estimate apf_report workdir}
rm -rf "$WORK"
mkdir -p "$WORK/obs"
fail() { echo "estimate_cli_test: FAIL: $*" >&2; exit 1; }

ARGS=(--algo form --chirality --n 8 --sched async --seed 5 --quiet)

"$EST" "${ARGS[@]}" --manifest "$WORK/obs/e.manifest.json" \
  --jsonl "$WORK/obs/e.jsonl" > "$WORK/obs.json" || fail "estimate failed"
"$REPORT" "$WORK/obs" > "$WORK/report.txt" || fail "apf_report exited $?"
grep -Eq '^bramas-tixeuil +48/512 +3 +half_width ' "$WORK/report.txt" ||
  fail "apf_report printed no arm row for the estimate"
grep -Eq '^est_batches +manifests=3 events=3 OK$' "$WORK/report.txt" ||
  fail "est_batches cross-check is not OK"
grep -Eq '^est_converged +manifests=1 events=1 OK$' "$WORK/report.txt" ||
  fail "est_converged cross-check is not OK"
echo "OK: apf_report reads the arm and its batch and convergence events"

"$EST" "${ARGS[@]}" --journal "$WORK/j.journal" > "$WORK/j.json" ||
  fail "--journal run failed"
cmp "$WORK/j.json" "$WORK/obs.json" || fail "--journal changed the document"
head -n 21 "$WORK/j.journal" > "$WORK/cut.journal"
printf '{"i":9999,"payl' >> "$WORK/cut.journal"
"$EST" "${ARGS[@]}" --resume "$WORK/cut.journal" > "$WORK/cut.json" ||
  fail "--resume of a cut journal failed"
cmp "$WORK/cut.json" "$WORK/j.json" ||
  fail "resumed document differs from uninterrupted"
cmp "$WORK/cut.journal" "$WORK/j.journal" ||
  fail "resumed journal differs from uninterrupted"
echo "OK: cut + torn journal resumes to the byte-identical document"

flock -n "$WORK/j.journal.lock" \
  "$EST" "${ARGS[@]}" --resume "$WORK/j.journal" > /dev/null 2>&1
RC=$?
[ "$RC" -eq 4 ] || fail "apf_estimate on a held journal lock exited $RC, want 4"
echo "OK: held journal lock exits 4"

"$EST" "${ARGS[@]}" --ab > /dev/null 2>&1
RC=$?
[ "$RC" -eq 2 ] || fail "--ab exited $RC, want 2"
echo "OK: --ab is an unknown option"

"$EST" --algo scatter-form --n 8 --batch 4 --min-samples 4 --max-samples 4 \
  --quiet --manifest "$WORK/sf.manifest.json" > /dev/null ||
  fail "scatter-form estimate failed"
grep -q '"multiplicity":true' "$WORK/sf.manifest.json" ||
  fail "scatter-form manifest does not record multiplicity detection"
echo "OK: scatter-form records multiplicity detection"

echo "estimate_cli_test: PASS"
