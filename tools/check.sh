#!/usr/bin/env bash
# Full local gate: build + lint + test across the sanitizer matrix, a
# native-target leg, then a stress leg.
#
#   tools/check.sh            # plain, thread, address, undefined, native, stress
#   tools/check.sh plain tsan # subset: plain + thread
#
# Each configuration gets its own build directory (build-check-<name>), so
# repeat runs are incremental. The plain configuration runs the whole suite;
# sanitizer configurations run the concurrency/robustness labels that the
# instrumentation is for (chaos, soak, syschaos) plus the lint gate and the
# qos label (the credit tier, the offline solver's tests and a two-worker
# ext_qos run); the address and undefined ones add the sim label (the
# simulator's bit-identity guards and the machine/scheduler tests that index
# its per-thread arrays; the undefined build aborts on the first report) and
# the gate label (the signal gate, which TSan cannot run: it defers
# asynchronous signals). The thread configuration adds the locks label (the
# parallel harness, the mutex-taking client and manager-server tests and
# the wire protocol) and skips the soak: the recovery soak
# forks a supervised manager from a multi-threaded process, which TSan
# refuses to run ("starting new threads after multi-threaded fork is not
# supported"). The syschaos label stays fork-free by construction
# (tests/CMakeLists.txt), so TSan runs it in full.
#
# The native configuration builds with -march=native (FMA on most hosts)
# and runs the repro and sim labels (DESIGN.md §1: the flags the goldens
# assume).
#
# The stress configuration reuses the plain build: it repeats every
# syschaos, soak, locks and gate test until it fails (at most 20 times)
# beside a `ctest -L repro` load loop, and keeps the console output, with
# the full output of every failing test, in
# build-check-plain/stress/<UTC time>.log.
#
# Legs continue past failures so one run reports every broken
# configuration; the summary table at the end shows per-leg results and
# the exit code is nonzero if ANY leg failed.
set -uo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)

configs=("$@")
if [ ${#configs[@]} -eq 0 ]; then
  configs=(plain thread address undefined native stress)
fi

legs=()      # "<config>/<step>" per leg, in run order
results=()   # "ok" | "FAIL" | "skip", same index

run_leg() {  # run_leg <config> <step> <cmd...>
  local cfg="$1" step="$2"
  shift 2
  echo "==> [$cfg] $step"
  if "$@"; then
    legs+=("$cfg/$step"); results+=("ok")
    return 0
  fi
  legs+=("$cfg/$step"); results+=("FAIL")
  return 1
}

skip_leg() {  # skip_leg <config> <step> <why>
  echo "==> [$1] $2 skipped ($3)"
  legs+=("$1/$2"); results+=("skip")
}

ctest_leg() {  # ctest_leg <builddir> [label-regex]
  local dir="$1" labels="${2-}"
  if [ -n "$labels" ]; then
    (cd "$dir" && ctest --output-on-failure -j "$jobs" -L "$labels")
  else
    (cd "$dir" && ctest --output-on-failure -j "$jobs")
  fi
}

stress_stop=""  # the repro load loop runs until this file exists
trap '[ -n "$stress_stop" ] && touch "$stress_stop"' EXIT

stress_leg() {  # stress_leg <builddir>
  local dir="$1" log rc
  mkdir -p "$dir/stress"
  log="$dir/stress/$(date -u +%Y%m%dT%H%M%SZ).log"
  stress_stop="$dir/stress/stop"
  rm -f "$stress_stop"
  (cd "$dir" && until [ -e stress/stop ]; do ctest -L repro >/dev/null 2>&1; done) &
  (cd "$dir" && ctest --output-on-failure -j "$jobs" \
     -L 'syschaos|soak|locks|gate' --repeat until-fail:20) >"$log" 2>&1
  rc=$?
  touch "$stress_stop"
  wait
  tail -n 3 "$log"; echo "stress log: $log"
  return "$rc"
}

for cfg in "${configs[@]}"; do
  cxxflags=""
  case "$cfg" in
    plain)               sanitize="" ;;
    thread|tsan)         cfg=thread;    sanitize=thread ;;
    address|asan)        cfg=address;   sanitize=address ;;
    undefined|ubsan)     cfg=undefined; sanitize=undefined ;;
    native)              sanitize="";   cxxflags=-march=native ;;
    stress)              sanitize="" ;;
    *) echo "check.sh: unknown configuration '$cfg'" >&2; exit 2 ;;
  esac
  dir="build-check-$cfg"
  [ "$cfg" = stress ] && dir=build-check-plain

  run_leg "$cfg" configure \
    cmake -S . -B "$dir" -DBBSCHED_SANITIZE="$sanitize" \
      -DCMAKE_CXX_FLAGS="$cxxflags" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo || { skip_leg "$cfg" build "configure failed"; continue; }
  run_leg "$cfg" build cmake --build "$dir" -j "$jobs" \
    || { skip_leg "$cfg" lint "build failed"; continue; }

  run_leg "$cfg" lint "$dir/tools/bbsched_lint" --root="$PWD" || true

  case "$cfg" in
    plain)  run_leg "$cfg" ctest ctest_leg "$dir" || true ;;
    stress) run_leg "$cfg" repeat stress_leg "$dir" || true ;;
    thread) run_leg "$cfg" ctest ctest_leg "$dir" 'chaos|fuzz|lint|locks|syschaos|qos' || true ;;
    native) run_leg "$cfg" ctest ctest_leg "$dir" 'repro|sim' || true ;;
    *)      run_leg "$cfg" ctest ctest_leg "$dir" 'chaos|soak|fuzz|lint|syschaos|sim|gate|qos' || true ;;
  esac
done

echo
echo "==> summary"
failed=0
for i in "${!legs[@]}"; do
  printf '  %-28s %s\n' "${legs[$i]}" "${results[$i]}"
  [ "${results[$i]}" = "FAIL" ] && failed=1
done
if [ "$failed" -ne 0 ]; then
  echo "==> FAILED legs above"
  exit 1
fi
echo "==> all legs passed: ${configs[*]}"
