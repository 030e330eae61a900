#!/usr/bin/env bash
# Sanitizer gate: configure + build + ctest under sanitizers, with the
# drum::check contract macros compiled in (DRUM_CHECKED=ON).
#
# Usage: scripts/check.sh [asan|tsan|ubsan|all]     (default: all)
#
#   asan  — AddressSanitizer + UndefinedBehaviorSanitizer: lifetime,
#           bounds, aliasing, UB. Build dir: build-asan/.
#   tsan  — ThreadSanitizer: races on the ReactorRuntime / EventLoop /
#           MemNetwork / contract-layer paths (tests/stress_test.cpp
#           hammers them, including the reactor's shard threads and
#           cross-shard and foreign-thread readiness through the loop's
#           bridge in the Stress.Reactor* tests; tests/reactor_test.cpp
#           restarts one runtime while another delivers into it). After
#           the full suite it reruns the wake-sensitive tests 5 times:
#           a lost wakeup under the loop's parked rule would show there.
#           With them runs Stress.ReactorPooledFirstContactsDeliverEveryPair,
#           whose shard passes derive first-contact pair keys of several
#           nodes with no node lock held.
#           Build dir: build-tsan/.
#   ubsan — UBSan alone, non-recoverable (-fno-sanitize-recover=all): any
#           finding aborts the test instead of printing and continuing.
#           Catches what the asan leg tolerates, and clang adds the
#           `integer` group. Build dir: build-ubsan/.
#   all   — all three, in sequence.
#
# Each mode keeps its own build tree so the caches never fight (TSan and
# ASan cannot share objects). JOBS=<n> overrides the build parallelism.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-all}"
JOBS="${JOBS:-$(nproc)}"

run_mode() {
  local mode="$1" sanitize="$2" build_dir="$3"
  echo "== check.sh: ${mode} (${build_dir}) =="
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDRUM_CHECKED=ON \
    -DDRUM_SANITIZE="$sanitize"
  cmake --build "$build_dir" -j "$JOBS"
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"
  if [[ "$sanitize" == thread ]]; then
    ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS" \
      --repeat until-fail:5 \
      -R '^(EventLoop\.|Stress\.ParkedLoopWakesForEveryForeignNotify$|Stress\.ReactorShardedFloodAndChurn$|Stress\.ReactorPooledFirstContactsDeliverEveryPair$)'
  fi
  echo "check.sh: all tests passed under ${mode}"
}

case "$MODE" in
  asan) run_mode "address+undefined sanitizers" address build-asan ;;
  tsan) run_mode "thread sanitizer" thread build-tsan ;;
  ubsan) run_mode "undefined-behavior sanitizer (fatal)" ubsan build-ubsan ;;
  all)
    run_mode "address+undefined sanitizers" address build-asan
    run_mode "thread sanitizer" thread build-tsan
    run_mode "undefined-behavior sanitizer (fatal)" ubsan build-ubsan
    ;;
  *)
    echo "usage: scripts/check.sh [asan|tsan|ubsan|all]" >&2
    exit 2
    ;;
esac
echo "check.sh: done (${MODE})"
