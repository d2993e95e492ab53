#!/usr/bin/env bash
# Dead-code gate: every strong function in the src/ libraries must be
# reached by a production binary, or be listed in tools/deadcode_allow.txt.
#
# The production binaries are flexran-sim, flexran-fuzz, the benches, the
# examples and perfbench. They are built unoptimised into build-deadcode/,
# each function in its own section, and linked with --gc-sections, so a
# linked binary defines exactly the library functions it can reach. A
# library `T` symbol that no binary defines is unreachable.
#
# tools/deadcode_allow.txt holds one mangled symbol per line, followed by
# the reason it stays although no binary reaches it. The gate fails on an
# unreachable symbol that is not listed, and on a listed symbol that is now
# reachable or gone, so the list cannot rot.
#
# Header-inline and template code is not seen: it has no strong symbol.
#
# Usage:
#   tools/deadcode.sh
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-deadcode"
allow_file="${repo_root}/tools/deadcode_allow.txt"
jobs="${FLEXRAN_CHECK_JOBS:-$(nproc)}"
flags=(-G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

echo "== configure -> ${build_dir}"
cmake -S "${repo_root}" -B "${build_dir}" "${flags[@]}" >/dev/null
cmake -S "${repo_root}/perfbench" -B "${build_dir}/perfbench" "${flags[@]}" >/dev/null

echo "== build production binaries"
for dir in tools examples bench_build; do
  make -s -C "${build_dir}/${dir}" -j "${jobs}" >/dev/null
done
make -s -C "${build_dir}/perfbench" perfbench -j "${jobs}" >/dev/null

work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

find "${build_dir}/src" -name '*.a' -print0 | xargs -0 nm --defined-only -g 2>/dev/null |
  awk '$2 == "T" { print $3 }' | sort -u > "${work}/library"
binaries=("${build_dir}"/tools/flexran-sim "${build_dir}"/tools/flexran-fuzz
          "${build_dir}/perfbench/perfbench")
while IFS= read -r -d '' binary; do
  binaries+=("${binary}")
done < <(find "${build_dir}/bench" "${build_dir}/examples" -maxdepth 1 -type f -executable -print0)
for binary in "${binaries[@]}"; do
  nm --defined-only "${binary}" | awk '{ print $3 }'
done | sort -u > "${work}/reached"
comm -23 "${work}/library" "${work}/reached" > "${work}/unreachable"
awk 'NF { print $1 }' "${allow_file}" | sort -u > "${work}/allowed"

comm -23 "${work}/unreachable" "${work}/allowed" > "${work}/new"
comm -13 "${work}/unreachable" "${work}/allowed" > "${work}/stale"

echo "== ${#binaries[@]} binaries reach $(comm -12 "${work}/library" "${work}/reached" | wc -l)" \
  "of $(wc -l < "${work}/library") library functions;" \
  "$(wc -l < "${work}/allowed") allowlisted"
status=0
if [[ -s "${work}/new" ]]; then
  echo "unreachable from every production binary (delete, or allowlist with a reason):"
  c++filt < "${work}/new" | sed 's/^/  /'
  status=1
fi
if [[ -s "${work}/stale" ]]; then
  echo "stale allowlist entries (reachable now, or gone):"
  c++filt < "${work}/stale" | sed 's/^/  /'
  status=1
fi
[[ ${status} -eq 0 ]] && echo "== OK (deadcode)"
exit "${status}"
