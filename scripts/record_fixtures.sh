#!/usr/bin/env bash
# Re-records the checked-in replay fixtures and their goldens
# (tests/fixtures/ci_workload{,_mvcc,_fft}.{wlog,golden}) from the seeded
# datasets they were captured on. The update streams come out
# byte-identical; only the recorded digests and signatures follow the
# build. Run it for an intended change to what a tick digest or an
# EXPLAIN signature covers, and show in the change that the answers did
# not move: scripts/check_replay.sh lanes 2-2c compare against the result.
#
# Usage: scripts/record_fixtures.sh [--build DIR]

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
fixtures="${repo}/tests/fixtures"
tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT

# record NAME "GEN FLAGS" "RECORD FLAGS"
record() {
  local name="$1" gen_flags="$2" record_flags="$3"
  # shellcheck disable=SC2086  # the flag strings are word lists
  "${tool}" gen --out "${tmpdir}/${name}.pdrd" ${gen_flags} >/dev/null
  # shellcheck disable=SC2086
  "${tool}" record --in "${tmpdir}/${name}.pdrd" \
      --log "${fixtures}/${name}.wlog" ${record_flags}
  "${tool}" replay --log "${fixtures}/${name}.wlog" --verify --digests \
      | grep '^digest' >"${fixtures}/${name}.golden"
}

record ci_workload \
    "--objects 2000 --extent 1000 --duration 30 --interval 10 --seed 2007" \
    "--varrho 3 --l 30 --lookahead 5 --every 3"
record ci_workload_mvcc \
    "--objects 1200 --extent 800 --duration 20 --interval 8 --seed 5151" \
    "--varrho 3 --l 30 --lookahead 4 --every 2 --concurrent 2"
record ci_workload_fft \
    "--objects 1200 --extent 800 --duration 20 --interval 8 --seed 7171" \
    "--varrho 3 --l 30 --lookahead 4 --every 2 --fft-grid 128"
