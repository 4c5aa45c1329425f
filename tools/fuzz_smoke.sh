#!/usr/bin/env sh
# Short-budget smoke for coverage-guided schedule fuzzing (docs/fuzzing.md).
#
# Runs `kivati fuzz` on one corpus bug with a small schedule budget and
# asserts the pipeline end to end: the search terminates, finds at least
# one violation, shrinks it, and the saved artifact replays and still
# triggers the target. The JSON report lands in fuzz_smoke.json for upload.
#
#   sh tools/fuzz_smoke.sh
#
# Override the binary with KIVATI=path, the bug with FUZZ_BUG=name.
# Run from the repo root.
set -eu

KIVATI="${KIVATI:-./build/tools/kivati}"
BUG="${FUZZ_BUG:-NSS-329072}"
REPORT="fuzz_smoke.json"
ARTIFACTS="fuzz_smoke_artifacts"

rm -rf "$ARTIFACTS"

"$KIVATI" fuzz --bug "$BUG" --seed 7 --schedules 8 --plateau 8 \
  --shrink-runs 40 --max-cycles 5000000 --artifacts "$ARTIFACTS" \
  --json "$REPORT"

grep -q '"kind":"kivati_fuzz"' "$REPORT"
# A parser we did not write checks the report and every artifact.
python3 -m json.tool "$REPORT" >/dev/null
grep -q '"errors":\[\]' "$REPORT" \
  || { echo "fuzz candidates reported errors" >&2; exit 1; }
grep -q '"replay_ok":true' "$REPORT" \
  || { echo "no replay-verified discovery for $BUG" >&2; exit 1; }

# Every discovery must have produced a replayable artifact.
found=0
for artifact in "$ARTIFACTS"/repro-*.json; do
  [ -e "$artifact" ] || break
  found=1
  python3 -m json.tool "$artifact" >/dev/null
  "$KIVATI" replay "$artifact" >/dev/null
  echo "replayed $artifact"
done
[ "$found" -eq 1 ] || { echo "fuzz saved no artifacts" >&2; exit 1; }

schedules=$(tr -d '\n' <"$REPORT" | sed -E 's/.*"schedules_run":([0-9]+).*/\1/')
echo "fuzz smoke ok: $schedules schedule(s)," \
  "$(ls "$ARTIFACTS" | wc -l | tr -d ' ') artifact(s)"
