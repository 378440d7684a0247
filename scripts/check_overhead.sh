#!/usr/bin/env bash
# Flight-recorder overhead-regression gate.
#
# The recorder's contract is "cheap enough to leave on": a disabled
# call site is one relaxed load and a branch, and an enabled one is a
# timestamp plus four relaxed stores into a per-thread ring. This gate
# holds the end-to-end cost to that contract with bench_micro's
# BM_FrQueryRecorderPaired probe — a full FR query crossing every
# instrumented subsystem (filter, index scan, plane sweep, buffer pool).
# It fails if the recorder makes the query more than
# PDR_OVERHEAD_GATE_PCT percent (default 3) slower.
#
# Measurement: the probe runs 150 rounds on one engine, each round 3
# recorder-off and 3 recorder-on queries (the side that goes first
# alternates), timed by the thread's CPU clock, and reports the median
# per-round on/off ratio. A shared host drifts by several percent over
# seconds; comparing two sides timed seconds apart (as the minima of
# separate off and on repetitions did) read that drift as overhead, in
# both directions, while a round's two sides see the same host.
#
# Usage: scripts/check_overhead.sh [--build DIR]

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${repo}/build"
if [[ "${1:-}" == "--build" ]]; then
  build="$2"
fi

bench="${build}/bench/bench_micro"
if [[ ! -x "${bench}" ]]; then
  echo "error: ${bench} not built (cmake --build ${build})" >&2
  exit 1
fi

gate_pct="${PDR_OVERHEAD_GATE_PCT:-3}"
tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT

echo "==== bench_micro BM_FrQueryRecorderPaired (paired off/on rounds) ===="
env -u PDR_FLIGHT_RECORDER "${bench}" \
    --benchmark_filter='^BM_FrQueryRecorderPaired/' \
    --benchmark_format=json >"${tmpdir}/probe.json"

python3 - "${tmpdir}/probe.json" "${gate_pct}" <<'PY'
import json
import sys

path, gate_pct = sys.argv[1], float(sys.argv[2])
with open(path) as f:
    doc = json.load(f)

runs = [b for b in doc["benchmarks"]
        if b["name"].startswith("BM_FrQueryRecorderPaired")]
if len(runs) != 1 or "overhead_pct" not in runs[0]:
    sys.exit(f"no BM_FrQueryRecorderPaired result in {path}")
pct = runs[0]["overhead_pct"]
print(f"recorder overhead: {pct:+.2f}% (median of "
      f"{int(runs[0]['rounds'])} paired rounds; gate: {gate_pct:.1f}%)")
if pct > gate_pct:
    sys.exit(f"FAIL: flight-recorder overhead {pct:.2f}% exceeds "
             f"{gate_pct:.1f}% gate")
print("overhead gate passed")
PY
