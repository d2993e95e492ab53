#!/usr/bin/env bash
# Dead-code gate: every function written in the src/ libraries, header-inline
# ones included, must be reached by a production binary, or be listed in
# tools/deadcode_allow.txt.
#
# The production binaries are flexran-sim, flexran-fuzz, the benches, the
# examples and perfbench. They are built unoptimised into build-deadcode/
# with debug info, each function in its own section, inline functions kept
# out of line (-fkeep-inline-functions), and linked with --gc-sections, so a
# linked binary defines exactly the library functions it can reach. A
# function also counts as reached when a binary inlines it into live code
# (a DW_TAG_inlined_subroutine in the binary's DWARF); at -O0 that is what
# becomes of a [[gnu::always_inline]] member. A library `T` or `W` symbol
# that no binary defines or inlines is unreachable.
#
# Only `flexran::` functions count. Constructors and destructors, and the
# members of `util::Result<>`, are left out by rule: the compiler emits them
# for whatever type a caller names, so they say nothing about the code
# written in src/. Local entities (lambdas) and `std::` instantiations do
# not carry the `flexran::` prefix and are left out with them.
#
# tools/deadcode_allow.txt holds one mangled symbol per line, then its
# category and the reason it stays although no binary reaches it:
#   (a) test probe: a test checks production behaviour through it
#   (b) the only decoder of a wire message
#   (c) lifecycle or durability code with no production caller yet
# The gate fails on an unreachable symbol that is not listed, on a listed
# symbol that is now reachable or gone, on a line without a category and a
# reason, and on an (a) line that no test binary defines or inlines, so the
# list cannot rot. The test binaries are built into build-deadcode/ for that
# last check only; they never count as reaching anything.
#
# Usage:
#   tools/deadcode.sh
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-deadcode"
allow_file="${repo_root}/tools/deadcode_allow.txt"
jobs="${FLEXRAN_CHECK_JOBS:-$(nproc)}"
flags=(-G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Debug "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -g"
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections -fkeep-inline-functions"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

echo "== configure -> ${build_dir}"
cmake -S "${repo_root}" -B "${build_dir}" "${flags[@]}" >/dev/null
cmake -S "${repo_root}/perfbench" -B "${build_dir}/perfbench" "${flags[@]}" >/dev/null

echo "== build production and test binaries"
for dir in tools examples bench_build tests; do
  make -s -C "${build_dir}/${dir}" -j "${jobs}" >/dev/null
done
make -s -C "${build_dir}/perfbench" perfbench -j "${jobs}" >/dev/null

work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

# Symbols a binary defines, plus the linkage names of the functions it
# inlines into live code. An inlined copy whose enclosing function was
# garbage-collected keeps its DWARF with a zero low_pc; it does not count.
reached_by() {
  local binary
  for binary in "$@"; do
    nm --defined-only "${binary}" | awk '{ print $3 }'
    readelf --debug-dump=info "${binary}" 2>/dev/null |
      grep -E '^ *<[0-9]+><|DW_AT_(linkage_name|specification|abstract_origin|low_pc)' |
      awk '
        function flush() {
          if (tag == "DW_TAG_inlined_subroutine" && origin != "" && live) inlined[origin] = 1
        }
        /^ *<[0-9]+></ {
          flush()
          die = $1; sub(/^<[0-9]+></, "", die); sub(/>:$/, "", die); die = "0x" die
          tag = $NF; gsub(/[()]/, "", tag); origin = ""; live = 0
          next
        }
        /DW_AT_linkage_name/ { linkage[die] = $NF; next }
        /DW_AT_specification|DW_AT_abstract_origin/ {
          ref = $NF; gsub(/[<>]/, "", ref)
          if (tag == "DW_TAG_inlined_subroutine") origin = ref; else parent[die] = ref
          next
        }
        /DW_AT_low_pc/ { live = ($NF != "0x0" && $NF != "0xffffffffffffffff"); next }
        END {
          flush()
          for (ref in inlined) {
            for (hops = 0; ref != "" && !(ref in linkage) && hops < 4; hops++) ref = parent[ref]
            if (ref in linkage) print linkage[ref]
          }
        }'
  done | sort -u
}

find "${build_dir}/src" -name '*.a' -print0 | xargs -0 nm --defined-only -g 2>/dev/null |
  awk '($2 == "T" || $2 == "W") && $3 ~ /^_ZN[KRO]*7flexran/ { print $3 }' | sort -u > "${work}/mangled"
# Constructors, destructors and Result<> members go by rule (see above).
c++filt < "${work}/mangled" | paste "${work}/mangled" - | awk -F '\t' '
  function unqualified(name,   depth, i, c, start) {
    depth = 0; start = 1
    for (i = 1; i <= length(name); i++) {
      c = substr(name, i, 1)
      if (c == "<" || c == "(") depth++
      else if (c == ">" || c == ")") depth--
      else if (depth == 0 && substr(name, i, 2) == "::") start = i + 2
    }
    return substr(name, start)
  }
  {
    name = $2
    if (name ~ /^flexran::util::Result</) next
    sub(/\(.*$/, "", name)                # drop the parameter list
    last = unqualified(name)
    owner = substr(name, 1, length(name) - length(last) - 2)
    owner = unqualified(owner); sub(/<.*$/, "", owner)
    plain = last; sub(/<.*$/, "", plain)
    if (plain == owner || plain == "~" owner) next
    print $1
  }' | sort -u > "${work}/library"

binaries=("${build_dir}"/tools/flexran-sim "${build_dir}"/tools/flexran-fuzz
          "${build_dir}/perfbench/perfbench")
while IFS= read -r -d '' binary; do
  binaries+=("${binary}")
done < <(find "${build_dir}/bench" "${build_dir}/examples" -maxdepth 1 -type f -executable -print0)
tests=()
while IFS= read -r -d '' binary; do
  tests+=("${binary}")
done < <(find "${build_dir}/tests" -maxdepth 1 -name '*_test' -type f -executable -print0)

reached_by "${binaries[@]}" > "${work}/reached"
comm -23 "${work}/library" "${work}/reached" > "${work}/unreachable"

status=0
untagged="$(grep -nvE '^[^ ]+ \((a|b|c)\) [^ ]' "${allow_file}" | grep -v '^[0-9]*:$' || true)"
if [[ -n "${untagged}" ]]; then
  echo "allowlist lines without a category (a), (b) or (c) and a reason:"
  sed 's/^/  line /' <<< "${untagged}"
  status=1
fi
awk 'NF { print $1 }' "${allow_file}" | sort -u > "${work}/allowed"
comm -23 "${work}/unreachable" "${work}/allowed" > "${work}/new"
comm -13 "${work}/unreachable" "${work}/allowed" > "${work}/stale"

reached_by "${tests[@]}" > "${work}/probed"
awk '$2 == "(a)" { print $1 }' "${allow_file}" | sort -u |
  comm -23 - "${work}/probed" > "${work}/unprobed"

count() { grep -c " (${1}) " "${allow_file}" || true; }
echo "== ${#binaries[@]} binaries reach $(comm -12 "${work}/library" "${work}/reached" | wc -l)" \
  "of $(wc -l < "${work}/library") library functions;" \
  "$(wc -l < "${work}/allowed") allowlisted: (a) $(count a), (b) $(count b), (c) $(count c)"
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
if [[ -s "${work}/unprobed" ]]; then
  echo "stale test probes (no test binary defines or inlines them):"
  c++filt < "${work}/unprobed" | sed 's/^/  /'
  status=1
fi
[[ ${status} -eq 0 ]] && echo "== OK (deadcode)"
exit "${status}"
