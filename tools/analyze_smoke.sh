#!/usr/bin/env sh
# Verdict-count smoke for the static conflict analysis (docs/analysis.md).
#
# Runs `kivati analyze --json` over the analyze examples and every
# registered app, each app also with --interprocedural --precise-aliasing
# (rows `app:NAME+ext`), and compares the summary counts (ARs per verdict,
# pruned, plus the correlated-set census of docs/correlation.md: sets kept,
# pairs rejected, ARs fused/synthesized) against the committed baseline, so
# precision regressions show up as a one-line diff in review.
#
#   sh tools/analyze_smoke.sh check    # diff against bench/ANALYZE_baseline.txt
#   sh tools/analyze_smoke.sh update   # regenerate the baseline
#
# Override the binary with KIVATI=path. Run from the repo root.
set -eu

KIVATI="${KIVATI:-./build/tools/kivati}"
BASELINE="bench/ANALYZE_baseline.txt"

# One line per target: the summary fields of the kivati_analyze JSON header
# (everything before the per-AR array), quotes stripped for readability,
# followed by the correlated-set counts spliced at the end of the envelope.
row() {
  name="$1"
  shift
  json="$("$KIVATI" analyze "$@" --json 2>/dev/null)"
  summary="$(printf '%s\n' "$json" | head -n 1 \
    | sed -E 's/,"ars":\[$//; s/^\{//; s/"//g; s/kind:kivati_analyze,//')"
  corr="$(printf '%s' "$json" | tr -d '\n' \
    | sed -E 's/.*"correlation":\{"kept":([0-9]+),"rejected_pairs":([0-9]+),"fused_ars":([0-9]+),"synthesized_ars":([0-9]+).*/corr_kept:\1,corr_rejected:\2,corr_fused:\3,corr_synthesized:\4/')"
  printf '%s %s %s\n' "$name" "$summary" "$corr"
}

report() {
  row examples/analyze/mixed.kv examples/analyze/mixed.kv --threads main:0
  row examples/analyze/window.kv examples/analyze/window.kv \
    --threads worker:0,worker:1
  for app in nss vlc webstone tpcw specomp; do
    row "app:$app" --app "$app"
  done
  # The annotator extensions refine the variable identities that pairing
  # indexes its site bitsets by (docs/analysis.md §2).
  for app in nss vlc webstone tpcw specomp; do
    row "app:$app+ext" --app "$app" --interprocedural --precise-aliasing
  done
}

case "${1:-check}" in
  update)
    report >"$BASELINE"
    echo "wrote $BASELINE"
    ;;
  check)
    report | diff -u "$BASELINE" - \
      || { echo "verdict counts drifted from $BASELINE" \
           "(run: sh tools/analyze_smoke.sh update)" >&2; exit 1; }
    ;;
  *)
    echo "usage: $0 [check|update]" >&2
    exit 2
    ;;
esac
