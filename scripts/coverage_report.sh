#!/usr/bin/env bash
# Coverage of src/ by the shipped paths: which lines of the library no
# bench, gate or example session reaches.
#
# Builds the library, the benches and the examples with --coverage in a
# throwaway directory, and vr_bench (vrbench/, built as its own CMake
# package, unchanged) beside them. Then it runs, each against a store
# of its own under the build directory:
#   - the three vr-bench workloads (image_cold, id_warm, ingest_mixed)
#     for a few seconds each;
#   - the check_all.sh bench gates: micro_features --smoke,
#     micro_scale --smoke, table1_precision --gate BENCH_quality.json;
#   - fig7_index_tree;
#   - scripted quickstart, ingest_admin and search_cli sessions.
# Tests are not built: a line only a test reaches counts as unreached.
#
# It prints, per src/ file, the lines no run reached (as ranges), and
# last the whole files none of them reached. A file with no executable
# line, or a header no built file includes, has no coverage data and is
# not listed. It is a report, not a gate: it exits 0 whatever it finds,
# and non-zero only when a build fails. A run that exits non-zero is
# named after the report (its lines still count): under the coverage
# instrumentation micro_scale's two-stage speed gate can fail.
#
# Usage: scripts/coverage_report.sh [build-dir] [seconds-per-workload]
#   build-dir defaults to build-coverage and is deleted first;
#   seconds-per-workload defaults to 3.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT=$(pwd)
OUT="${1:-build-coverage}"
SECONDS_PER_WORKLOAD="${2:-3}"
JOBS=$(( $(nproc) < 4 ? $(nproc) : 4 ))

rm -rf "$OUT"
mkdir -p "$OUT"
OUT=$(cd "$OUT" && pwd)
LOG="$OUT/runs.log"
: > "$LOG"

# Optimized (-O2), as shipped: unoptimized, a cold query takes about
# 0.5 s and each workload's corpus setup minutes. An optimizer may fold
# a line into its neighbour, so a single unreached line can be an
# artefact; whole functions and files are not.
flags=(-DCMAKE_BUILD_TYPE=RelWithDebInfo "-DCMAKE_CXX_FLAGS=--coverage"
       "-DCMAKE_EXE_LINKER_FLAGS=--coverage")
echo "coverage: building in $OUT (logs in $LOG)"
cmake -S . -B "$OUT/main" "${flags[@]}" -DVR_BUILD_TESTS=OFF \
  -DCMAKE_DISABLE_FIND_PACKAGE_benchmark=TRUE >> "$LOG" 2>&1
cmake --build "$OUT/main" -j "$JOBS" >> "$LOG" 2>&1
cmake -S vrbench -B "$OUT/vrbench" "${flags[@]}" >> "$LOG" 2>&1
cmake --build "$OUT/vrbench" --target vr_bench -j "$JOBS" >> "$LOG" 2>&1

failed=()
run() {  # run <label> <command...>: logs the command's output
  echo "coverage: $1"
  echo "=== $1" >> "$LOG"
  local label=$1
  shift
  "$@" >> "$LOG" 2>&1 || failed+=("$label")
}

bin="$OUT/main"
work="$OUT/work"
mkdir -p "$work"
for workload in image_cold id_warm ingest_mixed; do
  run "vr_bench $workload" "$OUT/vrbench/vr_bench" --workload "$workload" \
    --seed 1 --seconds "$SECONDS_PER_WORKLOAD" --trace 0 \
    --workdir "$work/$workload"
done
run "micro_features --smoke" "$bin/bench/micro_features" --smoke
run "micro_scale --smoke" "$bin/bench/micro_scale" --smoke
run "table1_precision --gate" "$bin/bench/table1_precision" \
  --gate BENCH_quality.json
run "fig7_index_tree" "$bin/bench/fig7_index_tree"
run "quickstart" "$bin/examples/quickstart" "$work/quickstart"
db="$work/admin"
run "ingest_admin gen" "$bin/examples/ingest_admin" "$db" gen sports 1 s1
run "ingest_admin gen" "$bin/examples/ingest_admin" "$db" gen cartoon 2 c1
run "ingest_admin bulk" "$bin/examples/ingest_admin" "$db" bulk 3 \
  --workers 2 --seed 5
run "ingest_admin list" "$bin/examples/ingest_admin" "$db" list
run "ingest_admin stats" "$bin/examples/ingest_admin" "$db" stats
run "ingest_admin del" "$bin/examples/ingest_admin" "$db" del 1
run "search_cli session" bash -c "printf '%s\n' help list 'find c' \
  'query sports 3' 'single gabor cartoon 8' 'like 2' \
  'sheet $work/sheet.ppm' 'video 2' quit \
  | '$bin/examples/search_cli' '$db'"

echo "coverage: reading gcov data"
python3 - "$ROOT" "$OUT" <<'EOF'
import json
import os
import subprocess
import sys

root, out = sys.argv[1], sys.argv[2]
src = os.path.join(root, "src") + os.sep

# line -> executed, per src/ file, over every object of both builds. A
# line any object ran counts as reached; objects no run loaded have no
# .gcda, and gcov reads them as never executed.
lines = {}
for d, _, names in os.walk(out):
    for name in names:
        if not name.endswith(".gcno"):
            continue
        done = subprocess.run(
            ["gcov", "--json-format", "--stdout", os.path.join(d, name)],
            cwd=d, capture_output=True, text=True, check=False)
        for doc in done.stdout.splitlines():
            if not doc.strip():
                continue
            for f in json.loads(doc)["files"]:
                path = os.path.realpath(os.path.join(d, f["file"]))
                if not path.startswith(src):
                    continue
                seen = lines.setdefault(path[len(src):], {})
                for line in f["lines"]:
                    n = line["line_number"]
                    seen[n] = seen.get(n, False) or line["count"] > 0

def ranges(numbers):
    out, start, prev = [], None, None
    for n in numbers:
        if start is None:
            start = prev = n
        elif n == prev + 1:
            prev = n
        else:
            out.append((start, prev))
            start = prev = n
    if start is not None:
        out.append((start, prev))
    return ",".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in out)

whole, total, reached = [], 0, 0
print("\nunreached lines per src/ file (reached/total):")
for path in sorted(lines):
    seen = lines[path]
    if not seen:
        continue
    hit = sum(seen.values())
    total += len(seen)
    reached += hit
    missed = sorted(n for n, ran in seen.items() if not ran)
    if hit == 0:
        whole.append(path)
    if missed:
        print("  %s (%d/%d): %s" % (path, hit, len(seen), ranges(missed)))
print("\nsrc/ lines reached: %d of %d (%.1f%%)" %
      (reached, total, 100.0 * reached / max(total, 1)))
print("\nwhole src/ files no run reached (%d):" % len(whole))
for path in whole:
    print("  " + path)
EOF

if (( ${#failed[@]} > 0 )); then
  echo
  echo "runs that exited non-zero (see $LOG):"
  printf '  %s\n' "${failed[@]}"
fi
