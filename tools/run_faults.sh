#!/usr/bin/env bash
# Sweep fault matrix driver (see docs/robustness.md).
#
# Drives the soefair CLI through injected faults and asserts the
# hardened-runtime contract: the sweep supervisor survives hangs,
# torn journals and SIGKILL, re-runs a killed job only on --resume
# and at its own seed, and refuses a journal of another campaign
# (exit 13) without touching it. (The NaN check on a real SOE run is
# the unit test Runner.FairnessRunIsNanFree.)
#
# Usage: tools/run_faults.sh [build-dir]   (default: build)
# The binary is <build-dir>/tools/soefair_cli; pass the directory of
# a sanitized build to compose the fault paths with ASan/UBSan and
# the SOE_AUDIT invariant sweeps (the ci-asan preset turns both on).

set -u

BUILD_DIR=${1:-build}
CLI="$BUILD_DIR/tools/soefair_cli"
TIMEOUT_S=${SOEFAIR_FAULT_TIMEOUT:-180}

# Robustness coverage runs with the stall fast-forward engine on
# (the production default) so fault paths compose with cycle
# skipping; set SOEFAIR_FASTFORWARD=0 to cross-check the
# cycle-stepped baseline.
export SOEFAIR_FASTFORWARD=${SOEFAIR_FASTFORWARD:-1}

if [ ! -x "$CLI" ]; then
    echo "error: $CLI not found or not executable" >&2
    echo "build first: cmake --preset release && cmake --build ..." >&2
    exit 2
fi

SCRATCH=$(mktemp -d)
trap 'rm -rf "$SCRATCH"' EXIT

failures=0
fail() {
    echo "FAIL: $*" >&2
    failures=$((failures + 1))
}

# --- sweep supervisor fault scenarios ------------------------------
#
# Every scenario runs a tiny two-cell campaign (gcc:eon at F=0,1/2 at
# SOEFAIR_SCALE=0.02) so each job takes well under a second
# unsanitized and ~5-6 s under ASan. The deadline must stay well
# above a healthy job's runtime -- a too-tight deadline kills real
# work, not just the injected hang -- so the hang scenario uses 30 s
# (4-5x a healthy ASan job) and everything else 120 s.

SWEEP_ENV="env SOEFAIR_SCALE=0.02"
SWEEP_ARGS="sweep --pairs gcc:eon --levels 0,0.5"
SWEEP_DEADLINE=120

# Uninterrupted reference campaign.
ref="$SCRATCH/sweep_ref.csv"
if ! timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" $SWEEP_ARGS \
        --deadline "$SWEEP_DEADLINE" \
        --journal "$SCRATCH/ref.journal" --out "$ref" \
        >/dev/null 2>&1; then
    fail "supervisor: reference sweep failed"
else
    echo "ok: supervisor reference sweep complete"
fi

# a. Busy-hang past the deadline: the injected job must be killed
# at the deadline and recorded as MISSING; the campaign still finishes
# the other cells and exits with the partial-results code. A --resume
# without the injection completes it, byte-identical to the reference.
hangcsv="$SCRATCH/sweep_hang.csv"
hj="$SCRATCH/hang.journal"
timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" $SWEEP_ARGS \
    --deadline 30 --inject 'soe:gcc:eon:F=0.5@hang@99' \
    --journal "$hj" --out "$hangcsv" >/dev/null 2>&1
got=$?
if [ "$got" -ne 20 ]; then
    fail "supervisor hang: exit $got, expected 20 (partial)"
elif ! grep -q 'MISSING(gcc:eon,F=0.5,deadline' "$hangcsv"; then
    fail "supervisor hang: no MISSING(deadline) marker in CSV"
    sed 's/^/    /' "$hangcsv" >&2
else
    echo "ok: supervisor hang scenario is partial with MISSING marker"
fi
hangres="$SCRATCH/sweep_hang_resumed.csv"
if ! timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" $SWEEP_ARGS \
        --deadline "$SWEEP_DEADLINE" \
        --resume "$hj" --out "$hangres" >/dev/null 2>&1; then
    fail "supervisor hang: --resume exited nonzero"
elif ! cmp -s "$ref" "$hangres"; then
    fail "supervisor hang: resumed CSV differs from reference"
    diff "$ref" "$hangres" | sed 's/^/    /' >&2
else
    echo "ok: supervisor hang resume matches reference byte-for-byte"
fi

# b. Kill mid-journal-append: truncate the finished journal so its
# last record is torn (as a SIGKILL between write() and the newline
# would leave it). --resume must drop the torn tail, re-run only that
# job, and reproduce the reference CSV exactly.
tj="$SCRATCH/torn.journal"
cp "$SCRATCH/ref.journal" "$tj"
truncate -s -9 "$tj"
tornres="$SCRATCH/sweep_torn.csv"
if ! timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" $SWEEP_ARGS \
        --deadline "$SWEEP_DEADLINE" \
        --resume "$tj" --out "$tornres" >/dev/null 2>&1; then
    fail "supervisor torn-journal: --resume exited nonzero"
elif ! cmp -s "$ref" "$tornres"; then
    fail "supervisor torn-journal: resumed CSV differs from reference"
    diff "$ref" "$tornres" | sed 's/^/    /' >&2
else
    echo "ok: supervisor torn-journal resume matches reference"
fi

# c. SIGKILL mid-campaign: a sweep killed once its journal holds
# the first committed `done` record is resumed with --resume, which
# replays the finished jobs, re-runs the rest and must reproduce the
# reference CSV exactly.
kj="$SCRATCH/kill.journal"
$SWEEP_ENV "$CLI" $SWEEP_ARGS --deadline "$SWEEP_DEADLINE" \
    --journal "$kj" --out "$SCRATCH/sweep_killed.csv" \
    >/dev/null 2>&1 &
sweep_pid=$!
waited=0
while ! grep -q '"state":"done"' "$kj" 2>/dev/null \
        && kill -0 "$sweep_pid" 2>/dev/null \
        && [ "$waited" -lt $((TIMEOUT_S * 10)) ]; do
    sleep 0.1
    waited=$((waited + 1))
done
kill -9 "$sweep_pid" 2>/dev/null
wait "$sweep_pid" 2>/dev/null
got=$?
killres="$SCRATCH/sweep_kill_resumed.csv"
if [ "$got" -ne 137 ]; then
    fail "supervisor kill: sweep exited $got before the SIGKILL"
elif ! timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" $SWEEP_ARGS \
        --deadline "$SWEEP_DEADLINE" \
        --resume "$kj" --out "$killres" >/dev/null 2>&1; then
    fail "supervisor kill: --resume exited nonzero"
elif ! cmp -s "$ref" "$killres"; then
    fail "supervisor kill: resumed CSV differs from reference"
    diff "$ref" "$killres" | sed 's/^/    /' >&2
else
    echo "ok: supervisor resume after SIGKILL matches reference"
fi

# d. Journal of another campaign: resuming the reference journal
# with a different level set is a CheckpointError (exit 13), and the
# refused journal is left byte-identical.
mj="$SCRATCH/ref.journal"
cp "$mj" "$SCRATCH/ref.journal.before"
timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" sweep --pairs gcc:eon --levels 0 \
    --resume "$mj" --out "$SCRATCH/sweep_mismatch.csv" >/dev/null 2>&1
got=$?
if [ "$got" -ne 13 ]; then
    fail "supervisor mismatch: --resume exit $got, expected 13"
elif ! cmp -s "$SCRATCH/ref.journal.before" "$mj"; then
    fail "supervisor mismatch: the refused journal was modified"
else
    echo "ok: supervisor refuses another campaign's journal untouched"
fi

# e. A baseline killed on its first attempt is not re-run (at any
# seed) within the run: its cell and the pair's SOE cells are MISSING,
# and with the only pair's row gone the campaign exits 21 (no pair
# has a result row). A --resume with the same --inject runs the baseline as
# attempt 2 at its own seed and must reproduce the reference CSV.
stjob=$(grep -o '"job":"st:gcc:[0-9]*"' "$SCRATCH/ref.journal" | head -n 1 \
        | sed 's/^"job":"//; s/"$//')
bj="$SCRATCH/baseline.journal"
basecsv="$SCRATCH/sweep_baseline.csv"
timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" $SWEEP_ARGS \
    --deadline "$SWEEP_DEADLINE" --inject "$stjob@kill@1" \
    --journal "$bj" --out "$basecsv" >/dev/null 2>&1
got=$?
baseres="$SCRATCH/sweep_baseline_resumed.csv"
if [ -z "$stjob" ]; then
    fail "supervisor baseline kill: no st:gcc job in the reference journal"
elif [ "$got" -ne 21 ]; then
    fail "supervisor baseline kill: exit $got, expected 21"
elif ! grep -q 'MISSING(gcc:eon,ST:gcc,signal after 1 attempt(s))' \
        "$basecsv"; then
    fail "supervisor baseline kill: no MISSING(ST:gcc) marker in CSV"
    sed 's/^/    /' "$basecsv" >&2
elif ! timeout "$TIMEOUT_S" $SWEEP_ENV "$CLI" $SWEEP_ARGS \
        --deadline "$SWEEP_DEADLINE" --inject "$stjob@kill@1" \
        --resume "$bj" --out "$baseres" >/dev/null 2>&1; then
    fail "supervisor baseline kill: --resume exited nonzero"
elif ! cmp -s "$ref" "$baseres"; then
    fail "supervisor baseline kill: resumed CSV differs from reference"
    diff "$ref" "$baseres" | sed 's/^/    /' >&2
else
    echo "ok: supervisor killed baseline is MISSING, resume matches reference"
fi

# --------------------------------------------------------------------

if [ "$failures" -ne 0 ]; then
    echo "run_faults: $failures check(s) FAILED" >&2
    exit 1
fi
echo "run_faults: all checks passed"
exit 0
