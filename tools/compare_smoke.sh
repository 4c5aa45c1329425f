#!/usr/bin/env sh
# Detector-backend comparison smoke (docs/detectors.md).
#
# Runs `kivati compare` over the full Table-6 bug corpus at a fixed seed and
# cycle budget and diffs the per-backend counts — bugs found, false
# positives, lockset-only findings, and simulated overhead — against the
# committed baseline. A second job runs the multi-variable corpus
# (docs/correlation.md) the same way, plus a `--no-correlate` differential:
# the fused pipeline must convict all four bugs, the single-variable build
# none. The comparison is a deterministic function of the options, so any
# drift in either backend (a missed bug, a new false positive, a cost-model
# change) shows up as a one-line diff in review. The JSON reports land in
# compare_smoke.json / compare_smoke_multivar.json for upload.
#
#   sh tools/compare_smoke.sh check    # diff against bench/COMPARE_baseline.txt
#   sh tools/compare_smoke.sh update   # regenerate the baseline
#
# Override the binary with KIVATI=path. Run from the repo root.
set -eu

KIVATI="${KIVATI:-./build/tools/kivati}"
BASELINE="bench/COMPARE_baseline.txt"
REPORT="compare_smoke.json"
MV_REPORT="compare_smoke_multivar.json"

# 10M cycles is enough for the HB oracle to convict every corpus bug and for
# Kivati to catch the five whose racy interleaving occurs at seed 1 — the
# same configuration tests/detect_test.cc goldens in-process.
"$KIVATI" compare --max-cycles 10000000 --json "$REPORT"
# The four multi-variable bugs (--multivar selects just that corpus).
"$KIVATI" compare --multivar --max-cycles 10000000 --json "$MV_REPORT"

grep -q '"kind":"kivati_compare"' "$REPORT"
grep -q '"kind":"kivati_compare"' "$MV_REPORT"
# A parser we did not write checks both reports.
python3 -m json.tool "$REPORT" >/dev/null
python3 -m json.tool "$MV_REPORT" >/dev/null

# Everything in the reports is deterministic except host wall time.
strip() { sed -E 's/"wall_ms":[0-9.]+,//' "$1"; }
field() { head -n 1 "$2" | sed -E "s/.*\"$1\":([0-9]+).*/\1/"; }

case "${1:-check}" in
  update)
    { strip "$REPORT"; strip "$MV_REPORT"; } >"$BASELINE"
    echo "wrote $BASELINE"
    ;;
  check)
    { strip "$REPORT"; strip "$MV_REPORT"; } | diff -u "$BASELINE" - \
      || { echo "per-backend counts drifted from $BASELINE" \
           "(run: sh tools/compare_smoke.sh update)" >&2; exit 1; }
    hb_found=$(field hb_bugs_found "$REPORT")
    with_bugs=$(field rows_with_bugs "$REPORT")
    [ "$hb_found" = "$with_bugs" ] \
      || { echo "HB oracle no longer convicts all $with_bugs corpus bugs" >&2; exit 1; }
    mv_kivati=$(field kivati_bugs_found "$MV_REPORT")
    mv_hb=$(field hb_bugs_found "$MV_REPORT")
    mv_bugs=$(field rows_with_bugs "$MV_REPORT")
    [ "$mv_kivati" = "$mv_bugs" ] && [ "$mv_hb" = "$mv_bugs" ] \
      || { echo "multi-variable corpus: kivati $mv_kivati/$mv_bugs," \
           "hb $mv_hb/$mv_bugs (expected full conviction)" >&2; exit 1; }
    # Differential: without correlated-variable fusion the watchpoint
    # pipeline must miss every multi-variable bug (docs/correlation.md).
    "$KIVATI" compare --multivar --no-correlate --max-cycles 10000000 \
      --json "$MV_REPORT.nocorr" >/dev/null 2>&1
    nocorr=$(field kivati_bugs_found "$MV_REPORT.nocorr")
    rm -f "$MV_REPORT.nocorr"
    [ "$nocorr" = "0" ] \
      || { echo "--no-correlate build convicted $nocorr multi-variable" \
           "bug(s); the single-variable pipeline should miss all of them" >&2; exit 1; }
    echo "compare smoke ok: hb $hb_found/$with_bugs bugs," \
      "multivar kivati $mv_kivati/$mv_bugs (0 without correlation)," \
      "baseline unchanged"
    ;;
  *)
    echo "usage: $0 [check|update]" >&2
    exit 2
    ;;
esac
