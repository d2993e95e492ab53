#!/usr/bin/env bash
# Sanitizer gate, three legs (README "Verification"):
#   1. plain build + ctest          (cmake -B build && ctest)
#   2. address,undefined sanitizers (this script, default), plus the
#      dead-code gate tools/deadcode.sh
#   3. thread sanitizer             (this script, `thread` argument)
#
# The address leg builds the tree under ASan+UBSan, runs the full ctest
# suite, and soaks every chaos scenario across a fixed seed sweep through
# the instrumented flexran-sim binary (--check: end-state invariants are
# exit codes). The thread leg builds under TSan and runs the concurrency surface
# -- the controller, concurrency, integration, fault-tolerance and
# sharded suites (parallel app execution, snapshot publishing, batched
# command flushing, concurrent shard app slots) -- plus the chaos
# scenarios.
#
# Usage:
#   tools/check.sh                 # address,undefined (the default)
#   tools/check.sh thread          # thread sanitizer leg
#   FLEXRAN_CHECK_JOBS=4 tools/check.sh
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sanitize="${1:-address,undefined}"
build_dir="${repo_root}/build-sanitize-${sanitize//,/-}"
jobs="${FLEXRAN_CHECK_JOBS:-$(nproc)}"

echo "== configure (${sanitize}) -> ${build_dir}"
cmake -B "${build_dir}" -S "${repo_root}" -DFLEXRAN_SANITIZE="${sanitize}" >/dev/null

echo "== build"
cmake --build "${build_dir}" -j "${jobs}"

if [[ "${sanitize}" == "thread" ]]; then
  # TSan finds races, not leaks/UB; run the suites that exercise the
  # worker pool and the snapshot/command paths, as whole binaries.
  # net_test and proto_test ride along for the wire fast path
  # (docs/wire_fastpath.md): the span-delivery framing tests and the
  # encoder-reuse tests must stay clean when transports run threaded.
  for t in controller_test concurrency_test integration_test fault_tolerance_test obs_test sharded_test net_test proto_test; do
    echo "== ${t} under ${sanitize}"
    "${build_dir}/tests/${t}"
  done
else
  echo "== ctest"
  (cd "${build_dir}" && ctest --output-on-failure -j "${jobs}")

  # Wire fast-path allocation gate (docs/wire_fastpath.md): bench_wire
  # counts heap allocations per message on the steady-state encode /
  # decode / frame+reassemble paths, and per RIB snapshot publish and
  # compose at three fleet sizes, via a counting operator-new hook.
  # Counts are exact and machine-independent, so any regression above
  # bench/wire_alloc_baseline.txt, or a snapshot count that grows with
  # the fleet, fails the gate. So does an idle ShardCore cycle that
  # allocates or whose time grows more than 4x from 16 to 8192 agents.
  echo "== bench_wire allocation gate"
  "${build_dir}/bench/bench_wire" --check="${repo_root}/bench/wire_alloc_baseline.txt" \
    "${build_dir}/BENCH_wire.json"

  # Dead-code gate (tools/deadcode.sh, its own unsanitized build in
  # build-deadcode/): a src/ function that no production binary reaches
  # fails unless tools/deadcode_allow.txt lists it with a reason, and so
  # does a listed one that is reachable again or gone.
  "${repo_root}/tools/deadcode.sh"
fi

# Chaos soak: every chaos_*.yaml (recovery, overload, VSF containment,
# master crash, metrics-enabled) plus the sharded scale and failover
# scenarios, each across a fixed seed sweep, under the instrumented
# flexran-sim. --check turns end-state convergence into an exit code (all
# agents up, nothing recovering, no orphan unadopted, no adoption still
# pending), so a fault the control plane fails to absorb -- or any
# sanitizer report -- fails the gate. chaos_vsf.yaml is skipped under
# TSan (its containment path is single-threaded and throws on purpose;
# ASan/UBSan is the leg that matters for it); chaos_metrics.yaml keeps
# exercising the exporters with the output discarded. Every soak runs
# with --invariants=trap: the runtime InvariantMonitor
# (docs/chaos_fuzzing.md) aborts with a cycle trace the moment a safety
# property breaks mid-run, instead of waiting for the end-state check.
seeds=(1 7 13)
scenarios=("${repo_root}"/scenarios/chaos_*.yaml "${repo_root}/scenarios/sharded_scale.yaml" \
  "${repo_root}/scenarios/sharded_failover.yaml")
for scenario in "${scenarios[@]}"; do
  name="$(basename "${scenario}")"
  if [[ "${sanitize}" == "thread" && "${name}" == "chaos_vsf.yaml" ]]; then
    continue
  fi
  extra=()
  if [[ "${name}" == "chaos_metrics.yaml" ]]; then
    extra=(--metrics-json=/dev/null --metrics-prom=/dev/null)
  fi
  for seed in "${seeds[@]}"; do
    echo "== chaos soak: ${name} seed=${seed} under ${sanitize}"
    "${build_dir}/tools/flexran-sim" "${extra[@]}" --check --invariants=trap \
      --seed="${seed}" "${scenario}"
  done
done

# Fuzz leg (docs/chaos_fuzzing.md): deterministic chaos fuzzing over a
# fixed seed range under the instrumented binary. Each seed generates a
# randomized sharded topology + fault schedule, runs it under the
# InvariantMonitor, and fails the gate (exit 1) on any invariant
# violation or end-state divergence -- printing the minimized repro YAML
# so the failing seed is immediately replayable. The thread leg runs a
# shorter sweep: TSan's ~10x slowdown buys race coverage, not more seeds.
if [[ "${sanitize}" == "thread" ]]; then
  fuzz_runs=8
else
  fuzz_runs=32
fi
echo "== fuzz: seeds 1..${fuzz_runs} under ${sanitize}"
"${build_dir}/tools/flexran-fuzz" --seed=1 --runs="${fuzz_runs}" \
  --out="${build_dir}/repros"

echo "== OK (${sanitize})"
