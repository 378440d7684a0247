#!/usr/bin/env bash
# Workload capture/replay regression lane.
#
# Five checks, strongest first:
#
#   1. Capture determinism — a fresh seeded `pdr_tool record` run must
#      replay with bit-identical per-tick digests at 1/2/4/8 threads
#      (`replay --verify`). This is the feature's core claim: any
#      captured run is a cross-thread-count differential test.
#   2. Fixture determinism — the checked-in canned workload
#      (tests/fixtures/ci_workload.wlog) must verify, and its
#      `replay --digests` output must match the committed golden
#      (tests/fixtures/ci_workload.golden) column by column. This pins
#      the digest *format* and the engines' logical answers across PRs:
#      an answer change fails on the digest column ("answers changed"),
#      a provenance-only change (EXPLAIN stages or counts) on the sig
#      column ("provenance changed, answers unchanged"). An intentional
#      change regenerates the fixture pair (scripts/record_fixtures.sh),
#      an accidental one fails here. Assumes strict IEEE-754 doubles (the
#      build never enables -ffast-math).
#   2b. Concurrent fixture — the same pair for an MVCC capture
#      (tests/fixtures/ci_workload_mvcc.{wlog,golden}, recorded via
#      `pdr_tool record --concurrent`). Its verify path re-derives a
#      serialized reference per commit epoch and compares every snapshot
#      answer against it, so this lane pins the MVCC bit-identity claim
#      plus the epoch-tagged log format across PRs.
#   2c. FFT-rung fixture — the same pair for a capture with the FFT
#      whole-plane rung pinned (tests/fixtures/ci_workload_fft.{wlog,
#      golden}, recorded via `pdr_tool record --fft-grid 128`). Every
#      golden digest carries tier=4 (kFft), so this lane pins the FFT
#      rung's tier stamps, its answer transcripts, and the trailing
#      has_fft/fft_grid header fields across PRs. Lane 1 additionally
#      re-captures an FFT-rung run fresh each time and verifies it at
#      1/4 threads (the spectral path is single-threaded by design; the
#      exact-FR machinery around it is not).
#   3. Recording overhead — bench_micro's BM_MonitorTickRecorderPaired
#      probe: 300 rounds on one monitor, each of 8 unrecorded and 8
#      recorded ticks (the side that goes first alternates), timed by the
#      thread's CPU clock; the median per-round recorded/unrecorded ratio
#      must stay within PDR_RECORD_GATE_PCT percent (default 3). This is
#      the method of scripts/check_overhead.sh.
#   4. Replay perf regression — min-of-N `replay --bench` CPU p99 over
#      the canned workload vs the committed BENCH_baseline.json
#      replay_bench series; fail above PDR_REPLAY_GATE_PCT percent
#      (default 10). The gate compares per-tick *CPU* time: wall time on
#      shared machines swings severalfold with cgroup throttling within
#      minutes, while CPU time moves only when the work changes. Skipped
#      (with a note) when the baseline has no replay_bench series or
#      when PDR_REPLAY_BENCH_GATE=off.
#
# On failure the workload slice and both digest listings are copied to
# PDR_REPLAY_ARTIFACTS (default: <build>/replay-artifacts) for upload.
#
# Usage: scripts/check_replay.sh [--build DIR]

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${repo}/build"
if [[ "${1:-}" == "--build" ]]; then
  build="$2"
fi

tool="${build}/examples/pdr_tool"
if [[ ! -x "${tool}" ]]; then
  echo "error: ${tool} not built (cmake --build ${build})" >&2
  exit 1
fi

fixture="${repo}/tests/fixtures/ci_workload.wlog"
golden="${repo}/tests/fixtures/ci_workload.golden"
artifacts="${PDR_REPLAY_ARTIFACTS:-${build}/replay-artifacts}"
tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT

fail() {
  echo "FAIL: $*" >&2
  mkdir -p "${artifacts}"
  cp -f "${fixture}" "${artifacts}/" 2>/dev/null || true
  cp -f "${golden}" "${artifacts}/" 2>/dev/null || true
  cp -f "${repo}/tests/fixtures/ci_workload_mvcc.wlog" \
      "${repo}/tests/fixtures/ci_workload_mvcc.golden" \
      "${repo}/tests/fixtures/ci_workload_fft.wlog" \
      "${repo}/tests/fixtures/ci_workload_fft.golden" \
      "${artifacts}/" 2>/dev/null || true
  cp -f "${tmpdir}"/*.wlog "${tmpdir}"/*.digests "${tmpdir}"/*.jsonl \
      "${artifacts}/" 2>/dev/null || true
  echo "replay artifacts saved to ${artifacts}" >&2
  exit 1
}

# Compares a replay's digest listing with its golden, one column at a
# time. Each line is "digest t=N tier=K <answer digest> sig=<signature>":
# the answer digest covers the region bits, tier, reason and shed flag;
# the signature covers the provenance (EXPLAIN stages and work counts).
compare_golden() {
  local golden="$1" got="$2" what="$3"
  if ! diff -u <(awk '{print $2, $3, $4}' "${golden}") \
               <(awk '{print $2, $3, $4}' "${got}"); then
    fail "${what}: answers changed — digest column diverges from" \
         "${golden} (regenerate the pair only for an intended answer change)"
  fi
  if ! diff -u <(awk '{print $2, $5}' "${golden}") \
               <(awk '{print $2, $5}' "${got}"); then
    fail "${what}: provenance changed, answers unchanged — sig column" \
         "diverges from ${golden} (regenerate the pair if the new stages" \
         "or counts are intended)"
  fi
}

echo "==== replay lane 1: fresh capture verifies at 1/2/4/8 threads ===="
"${tool}" gen --out "${tmpdir}/fresh.pdrd" --objects 1200 --extent 800 \
    --duration 20 --interval 8 --seed 4242 >/dev/null
"${tool}" record --in "${tmpdir}/fresh.pdrd" --log "${tmpdir}/fresh.wlog" \
    --varrho 3 --l 30 --lookahead 4 --every 2 >/dev/null
for threads in 1 2 4 8; do
  "${tool}" replay --log "${tmpdir}/fresh.wlog" --verify \
      --threads "${threads}" >/dev/null \
      || fail "fresh capture diverged at --threads ${threads}"
  echo "  threads=${threads}: bit-identical"
done
# The same determinism claim for a fresh MVCC capture: every recorded
# snapshot answer must match the serialized reference re-derived at its
# pinned epoch.
"${tool}" record --in "${tmpdir}/fresh.pdrd" --log "${tmpdir}/fresh_mvcc.wlog" \
    --varrho 3 --l 30 --lookahead 4 --every 2 --concurrent 2 >/dev/null
for threads in 1 4; do
  "${tool}" replay --log "${tmpdir}/fresh_mvcc.wlog" --verify \
      --threads "${threads}" >/dev/null \
      || fail "fresh concurrent capture diverged at --threads ${threads}"
  echo "  concurrent threads=${threads}: bit-identical"
done
# And for a fresh capture with the FFT rung pinned: the whole-plane
# transform must answer every tick (tier=4) with thread-invariant digests.
"${tool}" record --in "${tmpdir}/fresh.pdrd" --log "${tmpdir}/fresh_fft.wlog" \
    --varrho 3 --l 30 --lookahead 4 --every 2 --fft-grid 128 >/dev/null
for threads in 1 4; do
  "${tool}" replay --log "${tmpdir}/fresh_fft.wlog" --verify \
      --threads "${threads}" >"${tmpdir}/fresh_fft.out" \
      || fail "fresh FFT-rung capture diverged at --threads ${threads}"
  grep -q 'fft=11' "${tmpdir}/fresh_fft.out" \
      || fail "fresh FFT-rung capture did not answer every tick at tier fft"
  echo "  fft threads=${threads}: bit-identical, all ticks tier=fft"
done

echo "==== replay lane 2: checked-in fixture matches its golden ===="
if [[ ! -f "${fixture}" || ! -f "${golden}" ]]; then
  fail "fixture pair missing (${fixture}, ${golden})"
fi
"${tool}" replay --log "${fixture}" --verify --digests \
    >"${tmpdir}/fixture.digests" \
    || fail "fixture capture no longer verifies against itself"
grep '^digest' "${tmpdir}/fixture.digests" >"${tmpdir}/got.digests"
compare_golden "${golden}" "${tmpdir}/got.digests" "fixture"
echo "  $(wc -l <"${golden}") golden digests match"

echo "==== replay lane 2b: concurrent MVCC fixture matches its golden ===="
mvcc_fixture="${repo}/tests/fixtures/ci_workload_mvcc.wlog"
mvcc_golden="${repo}/tests/fixtures/ci_workload_mvcc.golden"
if [[ ! -f "${mvcc_fixture}" || ! -f "${mvcc_golden}" ]]; then
  fail "concurrent fixture pair missing (${mvcc_fixture}, ${mvcc_golden})"
fi
"${tool}" replay --log "${mvcc_fixture}" --verify --digests \
    >"${tmpdir}/mvcc_fixture.digests" \
    || fail "concurrent fixture no longer verifies against its serialized references"
grep '^digest' "${tmpdir}/mvcc_fixture.digests" >"${tmpdir}/mvcc_got.digests"
compare_golden "${mvcc_golden}" "${tmpdir}/mvcc_got.digests" \
    "concurrent fixture"
echo "  $(wc -l <"${mvcc_golden}") golden snapshot digests match"

echo "==== replay lane 2c: FFT-rung fixture matches its golden ===="
fft_fixture="${repo}/tests/fixtures/ci_workload_fft.wlog"
fft_golden="${repo}/tests/fixtures/ci_workload_fft.golden"
if [[ ! -f "${fft_fixture}" || ! -f "${fft_golden}" ]]; then
  fail "FFT fixture pair missing (${fft_fixture}, ${fft_golden})"
fi
"${tool}" replay --log "${fft_fixture}" --verify --digests \
    >"${tmpdir}/fft_fixture.digests" \
    || fail "FFT-rung fixture no longer verifies against itself"
grep '^digest' "${tmpdir}/fft_fixture.digests" >"${tmpdir}/fft_got.digests"
compare_golden "${fft_golden}" "${tmpdir}/fft_got.digests" "FFT-rung fixture"
grep -vq 'tier=4' "${tmpdir}/fft_got.digests" \
    && fail "FFT-rung fixture contains a non-fft tier stamp"
echo "  $(wc -l <"${fft_golden}") golden fft digests match"

echo "==== replay lane 3: recording overhead on the monitor-tick probe ===="
bench="${build}/bench/bench_micro"
gate_pct="${PDR_RECORD_GATE_PCT:-3}"
if [[ -x "${bench}" ]]; then
  # A round's two sides see the same host, so the ratio cancels the
  # drift that made the minima of separately timed sides read phantom
  # overhead in both directions (see BM_MonitorTickRecorderPaired).
  env -u PDR_FLIGHT_RECORDER "${bench}" \
      --benchmark_filter='^BM_MonitorTickRecorderPaired/' \
      --benchmark_format=json >"${tmpdir}/record_probe.json"
  python3 - "${tmpdir}/record_probe.json" "${gate_pct}" <<'PY' \
      || fail "recording overhead exceeded ${gate_pct}%"
import json
import sys

path, gate_pct = sys.argv[1], float(sys.argv[2])
with open(path) as f:
    doc = json.load(f)

runs = [b for b in doc["benchmarks"]
        if b["name"].startswith("BM_MonitorTickRecorderPaired")]
if len(runs) != 1 or "overhead_pct" not in runs[0]:
    sys.exit(f"no BM_MonitorTickRecorderPaired result in {path}")
pct = runs[0]["overhead_pct"]
print(f"  recording overhead: {pct:+.2f}% (median of "
      f"{int(runs[0]['rounds'])} paired rounds; gate: {gate_pct:.1f}%)")
sys.exit(0 if pct <= gate_pct else 1)
PY
else
  echo "  skipped (bench_micro not built)"
fi

echo "==== replay lane 4: bench p99 vs committed baseline ===="
if [[ "${PDR_REPLAY_BENCH_GATE:-on}" == "off" ]]; then
  echo "  skipped (PDR_REPLAY_BENCH_GATE=off)"
else
  reps="${PDR_REPLAY_BENCH_REPS:-5}"
  : >"${tmpdir}/bench.jsonl"
  for _ in $(seq "${reps}"); do
    "${tool}" replay --log "${fixture}" --bench \
        --jsonl "${tmpdir}/rep.jsonl" >/dev/null
    cat "${tmpdir}/rep.jsonl" >>"${tmpdir}/bench.jsonl"
  done
  python3 - "${tmpdir}/bench.jsonl" "${repo}/BENCH_baseline.json" \
      "${PDR_REPLAY_GATE_PCT:-10}" <<'PY' || fail "replay p99 regression gate"
import json
import sys

bench_path, baseline_path, gate_pct = sys.argv[1], sys.argv[2], float(sys.argv[3])

p99s = []
with open(bench_path) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        if row.get("type") == "series" and row.get("series") == "replay_bench":
            p99s.append(row["values"]["p99_cpu_ms"])
if not p99s:
    sys.exit("no replay_bench rows produced by pdr_tool replay --bench")
got = min(p99s)  # min-of-N: the least-interfered repetition

try:
    with open(baseline_path) as f:
        doc = json.load(f)
    rows = doc["benches"]["replay"]["replay_bench"]
    want = min(r["p99_cpu_ms"] for r in rows)
except (FileNotFoundError, KeyError, ValueError):
    print("  skipped (no replay_bench p99_cpu_ms series in "
          "BENCH_baseline.json — run scripts/bench_baseline.sh to "
          "record one)")
    sys.exit(0)

# Machine-speed normalization: the same fixed sha256 workload
# bench_baseline.sh timed when the baseline was recorded, re-timed now.
# CPU time tracks frequency regimes (±15% on shared machines), so the
# raw ratio would flag phantom regressions whenever the gate runs in a
# slower regime than the baseline recording; dividing by the
# calibration ratio cancels that. The yardstick is deliberately NOT
# repo code — a repo-code yardstick would slow down together with a
# genuine regression and mask it.
import hashlib
import time


def sha256_calib_ms():
    buf = bytes(range(256)) * 16  # 4 KiB
    best = float("inf")
    for _ in range(3):
        t0 = time.process_time()
        h = hashlib.sha256()
        for _ in range(20000):
            h.update(buf)
        best = min(best, 1000.0 * (time.process_time() - t0))
    return best


speed_note = ""
try:
    calib_base = doc["benches"]["replay"]["calibration"][0]["sha256_cpu_ms"]
    calib_now = sha256_calib_ms()
    speed = calib_now / calib_base
    got /= speed
    speed_note = f", machine speed x{speed:.3f} normalized out"
except (KeyError, IndexError, ZeroDivisionError):
    pass

pct = 100.0 * (got - want) / want
print(f"  cpu p99 baseline: {want:.3f} ms  now: {got:.3f} ms  "
      f"delta: {pct:+.2f}% (gate: {gate_pct:.1f}%{speed_note})")
if pct > gate_pct:
    sys.exit(f"replay cpu p99 regressed {pct:.2f}% over baseline "
             f"(gate {gate_pct:.1f}%)")
PY
fi

echo "==== replay lane passed ===="
