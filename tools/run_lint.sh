#!/usr/bin/env bash
# Run clang-tidy over the repo's own sources (src/, tools/, bench/)
# using the compile database, and diff the findings against the
# checked-in baseline (tools/lint_baseline.txt).
#
#   tools/run_lint.sh [build-dir]
#
# Exit status:
#   0  no findings beyond the baseline (or clang-tidy unavailable —
#      reported, so CI images without the toolchain don't hard-fail
#      developer machines; CI installs clang-tidy and gets the gate)
#   1  new findings (printed), or setup failure
#
# To accept a finding as grandfathered, append its normalized line to
# tools/lint_baseline.txt. Prefer fixing over baselining.

set -u -o pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build/release}"
baseline="${repo_root}/tools/lint_baseline.txt"

tidy_bin="${CLANG_TIDY:-}"
if [[ -n "${tidy_bin}" ]] && ! command -v "${tidy_bin}" \
        >/dev/null 2>&1; then
    echo "run_lint: CLANG_TIDY='${tidy_bin}' is not runnable" >&2
    exit 1
fi
if [[ -z "${tidy_bin}" ]]; then
    for cand in clang-tidy clang-tidy-18 clang-tidy-17 clang-tidy-16 \
                clang-tidy-15 clang-tidy-14; do
        if command -v "${cand}" >/dev/null 2>&1; then
            tidy_bin="${cand}"
            break
        fi
    done
fi
if [[ -z "${tidy_bin}" ]]; then
    echo "run_lint: clang-tidy not found; skipping lint pass." >&2
    echo "run_lint: install clang-tidy (or set CLANG_TIDY) to run" \
         "the gate locally." >&2
    exit 0
fi

if [[ ! -f "${build_dir}/compile_commands.json" ]]; then
    echo "run_lint: no compile database in ${build_dir}." >&2
    echo "run_lint: configure first, e.g.: cmake --preset release" >&2
    exit 1
fi

mapfile -t sources < <(cd "${repo_root}" &&
    find src tools bench -name '*.cc' | sort)
if [[ ${#sources[@]} -eq 0 ]]; then
    echo "run_lint: no sources found under src/ tools/ bench/" >&2
    exit 1
fi

echo "run_lint: ${tidy_bin} over ${#sources[@]} files" \
     "(database: ${build_dir})"

raw="$(mktemp)"
findings="$(mktemp)"
db_dir="$(mktemp -d)"
trap 'rm -rf "${raw}" "${findings}" "${db_dir}"' EXIT

# Optimized builds compile the library with GCC's link-time
# optimization flags. clang-tidy only parses, and some clang majors
# reject -fno-fat-lto-objects, so lint a copy of the database with
# exactly those two flags removed and every other flag kept.
sed -e 's/ -flto=auto\([ "]\)/\1/g' \
    -e 's/ -fno-fat-lto-objects\([ "]\)/\1/g' \
    "${build_dir}/compile_commands.json" > "${db_dir}/compile_commands.json"

run_tidy() {
    (cd "${repo_root}" &&
        "${tidy_bin}" -p "${db_dir}" --quiet "$@" 2>/dev/null)
}

tidy_status=0
if command -v xargs >/dev/null 2>&1; then
    (cd "${repo_root}" && printf '%s\n' "${sources[@]}" |
        xargs -P "$(nproc)" -n 4 "${tidy_bin}" -p "${db_dir}" \
            --quiet 2>/dev/null) > "${raw}" || tidy_status=$?
else
    run_tidy "${sources[@]}" > "${raw}" || tidy_status=$?
fi
# clang-tidy exits 0 when it merely emits warnings; a nonzero status
# means the tool itself failed (bad compile command, crash). A gate
# that silently passes on tool failure is worse than no gate.
if [[ ${tidy_status} -ne 0 && ! -s "${raw}" ]]; then
    echo "run_lint: ${tidy_bin} failed (status ${tidy_status})" \
         "and produced no output; not treating as clean." >&2
    exit 1
fi

# Normalize: keep only warning/error lines, strip the absolute repo
# prefix and the column number so the baseline is stable across
# checkouts and minor formatting churn.
sed -n 's/^.*\/\(\(src\|tools\|bench\)\/[^:]*\):\([0-9]*\):[0-9]*: \(warning\|error\): /\1:\3: \4: /p' \
    "${raw}" | LC_ALL=C sort -u > "${findings}"

baseline_sorted="$(mktemp)"
trap 'rm -rf "${raw}" "${findings}" "${db_dir}" "${baseline_sorted}"' EXIT
grep -v '^\s*#' "${baseline}" 2>/dev/null | grep -v '^\s*$' |
    LC_ALL=C sort -u > "${baseline_sorted}" || true

new_findings="$(LC_ALL=C comm -23 "${findings}" "${baseline_sorted}")"
fixed="$(LC_ALL=C comm -13 "${findings}" "${baseline_sorted}")"

if [[ -n "${fixed}" ]]; then
    echo "run_lint: baseline entries no longer reported (consider" \
         "removing from ${baseline#"${repo_root}"/}):"
    printf '  %s\n' ${fixed:+"${fixed}"} | sed 's/^  $//'
fi

if [[ -n "${new_findings}" ]]; then
    echo "run_lint: NEW findings not in the baseline:" >&2
    printf '%s\n' "${new_findings}" >&2
    echo "run_lint: fix them or (sparingly) append to" \
         "${baseline#"${repo_root}"/}" >&2
    exit 1
fi

echo "run_lint: clean ($(wc -l < "${findings}") findings, all" \
     "baselined)"
exit 0
