#!/usr/bin/env bash
# The whole gate, in dependency order: docs consistency (no build),
# vr-lint (project-invariant rules R1-R5 with must-fail probes; works
# compiler-agnostic, degrades gracefully without python3),
# static analysis (Clang thread-safety + clang-tidy; skips itself on
# machines without clang), the plain build + full test suite, the
# feature-bench smoke run (plan output vs the golden-feature fixture,
# plus a one-bit must-fail probe of that comparison),
# the scale-bench smoke run (warm-open gate + two-stage-vs-exact
# parity + the two-stage p50 <= exact p50 speed gate at its largest
# smoke corpus),
# the Table 1 quality gate (Combined precision at every cutoff within
# 0.01 of BENCH_quality.json, plus a must-fail probe of that comparison),
# the coverage gate (scripts/coverage_report.sh in its own build-coverage
# dir: no whole src/ file left unreached by the shipped paths outside
# its allowlist, plus a must-fail probe; about 4 minutes),
# the network chaos sweep (seeded fault injection + wire fuzzing),
# then the sanitizer passes (ASan/UBSan over everything, TSan over the
# concurrency suites — check_sanitizers.sh chains into check_tsan.sh
# itself).
#
# Usage: scripts/check_all.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

scripts/check_docs.sh
scripts/check_lint.sh
scripts/check_static.sh

# Disabling find_package(benchmark) makes a google-benchmark dependency
# that creeps back into any CMakeLists.txt fail the configure step.
# A fresh build dir gets Ninja; an existing one keeps the generator it
# was configured with (e.g. Unix Makefiles from a plain
# `cmake -B build -S .`), since CMake refuses to switch generators.
generator=()
if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]]; then
  generator=(-G Ninja)
fi
cmake -B "$BUILD_DIR" -S . "${generator[@]}" -DVR_WERROR=ON \
  -DCMAKE_DISABLE_FIND_PACKAGE_benchmark=TRUE
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure

"$BUILD_DIR"/bench/micro_features --smoke
"$BUILD_DIR"/bench/micro_scale --smoke
"$BUILD_DIR"/bench/table1_precision --gate BENCH_quality.json
scripts/coverage_report.sh

scripts/check_chaos.sh "$BUILD_DIR"
scripts/check_sanitizers.sh

echo "all checks clean"
