#!/usr/bin/env bash
# Full pre-merge check: build and test the library in the three
# configurations that matter — the plain release-ish default, an ASan+UBSan
# build (-DPDR_SANITIZE=ON) that exercises the same test suite with
# instrumentation, and a TSan build (-DPDR_SANITIZE=thread) that runs the
# concurrency-sensitive subset (thread pool, parallel engines, buffer pool,
# tracing, resilience) — then re-runs the fault-injection suites in the
# ASan tree with the full crash + transient matrix (PDR_CRASH_SWEEP=full),
# the silent-corruption battery with the full flip-position matrix
# (PDR_CORRUPT_SWEEP=full),
# and the resilience soak lane (PDR_SOAK=full: seeded overload against the
# admission controller and a transient-fault storm under a wall-clock
# budget) in the release tree, the flight-recorder overhead gate
# (scripts/check_overhead.sh: the recorder-on end-to-end query probe
# must stay within 3% of recorder-off), and the workload-replay lane
# (scripts/check_replay.sh: capture determinism, fixture goldens, the
# recording-overhead gate, and the replay-bench p99 regression gate).
# Uses its own build trees (build-check/, build-asan/, build-tsan/) so it
# never clobbers an existing build/.
#
# Usage: scripts/check.sh [extra ctest args...]

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

# ctest -R filter per configuration; empty means the whole suite.
run_config() {
  local dir="$1"
  local filter="$2"
  shift 2
  echo "==== configure ${dir} ($*) ===="
  cmake -B "${repo}/${dir}" -S "${repo}" "$@"
  echo "==== build ${dir} ===="
  cmake --build "${repo}/${dir}" -j "${jobs}"
  echo "==== test ${dir} ===="
  local ctest_args=(--output-on-failure -j "${jobs}")
  if [[ -n "${filter}" ]]; then
    ctest_args+=(-R "${filter}")
  fi
  (cd "${repo}/${dir}" && ctest "${ctest_args[@]}" "${EXTRA_CTEST_ARGS[@]}")
}

EXTRA_CTEST_ARGS=("$@")

# Everything that touches the thread pool, the parallel query paths, the
# buffer pool's latch (taken by any thread that shares the pool), or
# cross-thread tracing. TSan runs ~10x slower, so the single-threaded
# math/geometry suites are skipped there (ASan covers them above). The FFT
# lanes (FftTest, FftMetamorphicTest) are single-threaded spectral math
# and stay out for the same reason;
# DifferentialTest — which drives the FFT rung against exact FR at
# 1/2/4/8 threads — is in, so the rung's parallel surface is covered.
tsan_filter='^(ThreadPoolTest|DifferentialTest|DeterminismTest|BufferPoolTest|PagerTest|IoStatsTest|FrEngineTest|PaEngineTest|PdrMonitorTest|ObsTest|FlightRecorderTest|SloMonitorTest|ResilienceTest|ResilienceSoakTest|MvccInterleaveTest|MvccSoakTest)'

run_config build-check "" -DCMAKE_BUILD_TYPE=Release
run_config build-asan "" -DCMAKE_BUILD_TYPE=Debug -DPDR_SANITIZE=ON
run_config build-tsan "${tsan_filter}" -DCMAKE_BUILD_TYPE=Debug -DPDR_SANITIZE=thread

# Crash matrix: the durability suites once more in the ASan tree, this
# time sweeping every kill point in every crash mode (the default run
# above thins the torn/truncated modes to every third point; see
# tests/recovery_test.cc). The tree is already built — this only re-runs
# the fault-injection tests.
crash_filter='RecoverySweepTest|TransientSweepTest|MonitorDurabilityTest|WalTest|StorageFileTest|FaultInjectorTest|DiskPagerTest'
echo "==== crash matrix (build-asan, PDR_CRASH_SWEEP=full) ===="
(cd "${repo}/build-asan" && PDR_CRASH_SWEEP=full ctest --output-on-failure \
    -j "${jobs}" -R "${crash_filter}" "${EXTRA_CTEST_ARGS[@]+"${EXTRA_CTEST_ARGS[@]}"}")

# Corruption matrix: the silent-corruption battery in the ASan tree with
# the full flip-position matrix (every live page x every hot/cold damage
# class; the default run does one position per class — see
# tests/corruption_test.cc). Proves detection is total and self-healing
# bit-exact under instrumentation.
corrupt_filter='CorruptionTest|CorruptionSweepTest'
echo "==== corruption matrix (build-asan, PDR_CORRUPT_SWEEP=full) ===="
(cd "${repo}/build-asan" && PDR_CORRUPT_SWEEP=full ctest --output-on-failure \
    -j "${jobs}" -R "${corrupt_filter}" "${EXTRA_CTEST_ARGS[@]+"${EXTRA_CTEST_ARGS[@]}"}")

# Soak lane: the resilience suites at full scale in the release tree —
# sustained overload against the shared admission controller plus a
# transient-fault storm through the durable checkpoint path. The tests
# assert the serving contract (every query accounted for, bounded shed
# rate, no data loss) and carry their own wall-clock budget, so a hung
# query fails the lane instead of wedging it.
echo "==== resilience soak (build-check, PDR_SOAK=full) ===="
(cd "${repo}/build-check" && PDR_SOAK=full ctest --output-on-failure \
    -j "${jobs}" -R 'ResilienceSoakTest' "${EXTRA_CTEST_ARGS[@]+"${EXTRA_CTEST_ARGS[@]}"}")

# Flight-recorder overhead gate: recording must stay affordable enough to
# leave on in a serving process. Times the bench_micro end-to-end query
# probe in paired recorder-off/on rounds on one engine and fails when the
# median per-round overhead is above 3%. Skipped when the bench tree wasn't built
# (google-benchmark not installed).
if [[ -x "${repo}/build-check/bench/bench_micro" ]]; then
  "${repo}/scripts/check_overhead.sh" --build "${repo}/build-check"
else
  echo "==== overhead gate skipped (bench_micro not built) ===="
fi

# Replay lane: fresh-capture determinism at 1/2/4/8 threads (serialized,
# MVCC, and FFT-rung captures), the canned fixtures — including the
# FFT-rung pair, whose goldens pin every tick at tier=fft — against their
# golden digests, the recording-overhead gate (paired unrecorded/recorded
# monitor ticks, median ratio within 3%), and the replay-bench p99 regression gate against
# BENCH_baseline.json (scripts/check_replay.sh).
"${repo}/scripts/check_replay.sh" --build "${repo}/build-check"

echo "==== all checks passed ===="
