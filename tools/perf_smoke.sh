#!/usr/bin/env sh
# Interpreter-throughput smoke for the hot-loop tiers (docs/performance.md).
#
# Runs `kivati bench-interp` over the standard grid and compares every
# (label, engine) row's simulated Mcycles/s against the committed
# BENCH_interp.json baseline. The bench itself is flake-hardened: each cell
# runs once untimed (warmup) and `--repeats` timed times, and reports the
# median wall time — best-of-N rewarded lucky outliers and made this gate
# flaky. A row fails when it drops below THRESHOLD (default 0.7) of the
# committed number; absolute throughput varies across runners, hence the
# wide margin. Block-engine rows are gated like the rest, so a regression
# in basic-block translation (or a silent deopt to the fast loop) surfaces
# in CI even while the fast/reference rows stay green. The 4- and 8-core
# rows run the block engine only (the per-instruction engines would take
# most of the job's time there): a fall-back to per-op scheduling above two
# cores fails their gate.
#
#   sh tools/perf_smoke.sh check    # compare against BENCH_interp.json
#   sh tools/perf_smoke.sh update   # regenerate the baseline (Release build)
#
# Override the binary with KIVATI=path. Run from the repo root.
set -eu

KIVATI="${KIVATI:-./build/tools/kivati}"
BASELINE="BENCH_interp.json"
THRESHOLD="${THRESHOLD:-0.7}"
GRID="--apps nss,vlc --configs vanilla,base,optimized --repeats 3"
WIDE="--apps nss,vlc --configs vanilla,optimized --cores 4,8 --block-only --repeats 3"

# Runs both grids and writes one report to $1.
bench() {
  parts=$(mktemp -d)
  # All three engines at two cores: the bench cross-checks their simulated
  # outcomes for byte-identity, so this run doubles as an
  # engine-equivalence smoke.
  # shellcheck disable=SC2086  # GRID and WIDE are flag lists on purpose
  "$KIVATI" bench-interp $GRID --json "$parts/c2.json"
  # shellcheck disable=SC2086
  "$KIVATI" bench-interp $WIDE --json "$parts/wide.json"
  python3 - "$parts/c2.json" "$parts/wide.json" "$1" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
with open(sys.argv[2]) as f:
    report["entries"] += json.load(f)["entries"]
with open(sys.argv[3], "w") as f:
    json.dump(report, f, separators=(",", ":"))
    f.write("\n")
EOF
  rm -r "$parts"
}

case "${1:-check}" in
  update)
    bench "$BASELINE"
    echo "wrote $BASELINE"
    ;;
  check)
    bench perf_current.json
    python3 - "$BASELINE" perf_current.json "$THRESHOLD" <<'EOF'
import json
import sys

baseline_path, current_path = sys.argv[1], sys.argv[2]
threshold = float(sys.argv[3])


def rows(path):
    with open(path) as f:
        report = json.load(f)
    return {(e["label"], e["engine"]): e["mcycles_per_sec"]
            for e in report["entries"]}


baseline = rows(baseline_path)
current = rows(current_path)
failed = False
for (label, engine), now in sorted(current.items()):
    name = f"{label} [{engine}]"
    want = baseline.get((label, engine))
    if want is None:
        print(f"SKIP       {name}: not in {baseline_path}")
        continue
    ratio = now / want if want else float("inf")
    ok = ratio >= threshold
    print(f"{'ok' if ok else 'REGRESSION':10s} {name}: "
          f"{now:.2f} vs committed {want:.2f} Mcyc/s ({ratio:.2f}x)")
    failed = failed or not ok
sys.exit(1 if failed else 0)
EOF
    ;;
  *)
    echo "usage: $0 [check|update]" >&2
    exit 2
    ;;
esac
