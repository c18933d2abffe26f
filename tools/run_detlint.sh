#!/usr/bin/env bash
# Run detlint/soelint (determinism rules DET-001..004, fast-forward
# contracts FF-001/002, error-taxonomy contracts ERR-001..003 and
# stats-determinism STAT-001/002 — see tools/detlint/README.md and
# docs/correctness.md) over the tree and diff the findings against
# the checked-in baseline (tools/detlint/baseline.txt).
#
#   tools/run_detlint.sh [extra args]
#
# Useful extra args (passed straight through to detlint.py):
#   --fix                      rewrite mechanically fixable findings
#                              in place (DET-004 member initializers)
#   --json PATH                machine-readable findings report
#   --update-baseline          rewrite the baseline from the scan
#
# Exit status (mirrors tools/run_lint.sh):
#   0  no findings beyond the baseline
#   1  new findings (printed)
#   2  setup failure (no python3)
#
# detlint needs only python3, so unlike the clang-tidy gate
# this one never skips: every environment that can run the tests can
# run detlint. To accept a finding as grandfathered, append its line
# to tools/detlint/baseline.txt. Prefer fixing over baselining.

set -u -o pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
baseline="${repo_root}/tools/detlint/baseline.txt"

python_bin="${PYTHON:-python3}"
if ! command -v "${python_bin}" >/dev/null 2>&1; then
    echo "run_detlint: '${python_bin}' not found (set PYTHON)" >&2
    exit 2
fi

exec "${python_bin}" "${repo_root}/tools/detlint/detlint.py" \
    --root "${repo_root}" --baseline "${baseline}" "$@"
