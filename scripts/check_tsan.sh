#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer and runs the concurrency-focused
# suites (thread pool, fork-join and forked extraction, service,
# wire/server, engine reader-writer stress, network chaos / fuzz /
# retry). Any data-race report fails the run.
#
# Usage: scripts/check_tsan.sh [build-dir] [ctest-args...]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"
shift || true

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DVR_SANITIZE=thread
cmake --build "$BUILD_DIR" -j "$(nproc)"

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
# Arm the runtime lock-order validator (vr-lint rule R3): the TSan leg
# already runs the heaviest concurrent schedules, so hierarchy
# inversions surface here deterministically.
export VR_LOCK_ORDER_DEBUG=1

ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'ThreadPool|Fork|Service|Wire|Concurrency|IngestPipeline|Chaos|Fuzz|Retry|LockOrder' "$@"
echo "tsan run clean"
