#!/usr/bin/env bash
# Documentation consistency check: every repo-relative path mentioned in
# the top-level docs must exist, the README must link the architecture
# document, and the symbols the docs lean on must still be defined in
# the headers. Grep-based on purpose — no build needed, so it runs in
# CI before anything compiles.
#
# Usage: scripts/check_docs.sh
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0
err() { echo "check_docs: $*" >&2; fail=1; }

DOCS=(README.md DESIGN.md EXPERIMENTS.md docs/ARCHITECTURE.md docs/FORMAT.md)

for doc in "${DOCS[@]}"; do
  [[ -f "$doc" ]] || err "missing document: $doc"
done

# 1. Every backticked or markdown-linked repo path in the docs exists.
#    Matches src/..., tests/..., bench/..., examples/..., scripts/...,
#    docs/... plus top-level *.md; tolerates `path` and [txt](path).
for doc in "${DOCS[@]}"; do
  [[ -f "$doc" ]] || continue
  while IFS= read -r path; do
    # Globs like micro_* or <table>.heap placeholders are prose, not paths.
    [[ "$path" == *'*'* || "$path" == *'<'* ]] && continue
    # An extensionless path is a build target (./build/bench/foo); its
    # source must exist instead.
    if [[ ! -e "$path" && ! -e "$path.cc" && ! -e "$path.cpp" ]]; then
      err "$doc references missing path: $path"
    fi
  done < <(grep -oE '(src|tests|bench|examples|scripts|docs)/[A-Za-z0-9_./*<>-]+' "$doc" \
           | sed 's/[.,;:)]*$//' | sort -u)
done

# 2. README links the architecture document, and the byte-level format
#    spec is linked from both entry points that promise it.
grep -q 'docs/ARCHITECTURE.md' README.md \
  || err "README.md does not link docs/ARCHITECTURE.md"
grep -q 'docs/FORMAT.md' README.md \
  || err "README.md does not link docs/FORMAT.md"
grep -q 'FORMAT.md' docs/ARCHITECTURE.md \
  || err "docs/ARCHITECTURE.md does not link FORMAT.md"

# 2b. No dead intra-repo markdown links: every [text](target) whose
#     target is a relative path must resolve from the doc's directory
#     (external URLs and pure #anchors are skipped, a #fragment after
#     a path is stripped).
for doc in "${DOCS[@]}"; do
  [[ -f "$doc" ]] || continue
  dir=$(dirname "$doc")
  while IFS= read -r target; do
    [[ "$target" == http* || "$target" == \#* ]] && continue
    path="${target%%#*}"
    [[ -z "$path" ]] && continue
    [[ -e "$dir/$path" || -e "$path" ]] \
      || err "$doc has dead markdown link: $target"
  done < <(grep -oE '\]\(([^)]+)\)' "$doc" | sed 's/^](//; s/)$//' | sort -u)
done

# 3. Symbols the docs hang their explanations on still exist in code.
declare -A SYMBOLS=(
  [IngestPipeline]=src/retrieval/ingest_pipeline.h
  [CommitPrepared]=src/retrieval/engine.h
  [PrepareKeyFrame]=src/retrieval/engine.h
  [IngestStats]=src/retrieval/ingest_stats.h
  [RetrievalService]=src/service/service.h
  [SharedMutex]=src/util/shared_mutex.h
  [ThreadPool]=src/util/thread_pool.h
  [CliSpec]=src/util/cli_flags.h
  [VideoStore]=src/storage/video_store.h
)
for sym in "${!SYMBOLS[@]}"; do
  hdr="${SYMBOLS[$sym]}"
  if [[ ! -f "$hdr" ]]; then
    err "header for documented symbol $sym missing: $hdr"
  elif ! grep -q "$sym" "$hdr"; then
    err "documented symbol $sym not found in $hdr"
  fi
done

# 3b. The format versions docs/FORMAT.md states are the ones the code
#     reads and writes, so a format bump cannot leave the spec stale:
#     the page-file version (§1.1 prose, §1.2 meta table), the matrix
#     cache version (§6.1 header table) and the newest §6.5 compat row.
code_version() {  # code_version <header> <constant>
  grep -oE "$2 = [0-9]+" "$1" | head -1 | grep -oE '[0-9]+$' || true
}
doc_version() {  # doc_version <ERE ending in the number>
  grep -oE "$1" docs/FORMAT.md | head -1 | grep -oE '[0-9]+$' || true
}
expect_version() {  # expect_version <what> <doc value> <code value> <code>
  if [[ -z "$2" || -z "$3" ]]; then
    err "cannot find the $1 in docs/FORMAT.md or in $4"
  elif [[ "$2" != "$3" ]]; then
    err "docs/FORMAT.md states $1 $2 but $4 is $3"
  fi
}
pager_version=$(code_version src/storage/pager.h kPagerFormatCurrent)
matrix_version=$(code_version src/retrieval/matrix_store.h kFormatVersion)
expect_version "page-file format version" \
  "$(doc_version 'Page-file format version: [0-9]+')" "$pager_version" \
  "kPagerFormatCurrent (src/storage/pager.h)"
expect_version "meta-page format version" \
  "$(doc_version '\| 32 \| u32 \| format version; must be [0-9]+')" \
  "$pager_version" "kPagerFormatCurrent (src/storage/pager.h)"
expect_version "matrix cache format version" \
  "$(doc_version '\| 8 \| u32 \| format version = [0-9]+')" \
  "$matrix_version" "MatrixStore::kFormatVersion (src/retrieval/matrix_store.h)"
compat_row=$(awk '/^### 6\.5/ {on = 1} /^## 7/ {on = 0}
                  on && /^\| [0-9]+ \| [0-9]+ \|/ {row = $0}
                  END {print row}' docs/FORMAT.md)
expect_version "newest §6.5 matrix cache version" \
  "$(echo "$compat_row" | awk -F'|' '{gsub(/ /, "", $2); print $2}')" \
  "$matrix_version" "MatrixStore::kFormatVersion (src/retrieval/matrix_store.h)"
expect_version "newest §6.5 page-file version" \
  "$(echo "$compat_row" | awk -F'|' '{gsub(/ /, "", $3); print $3}')" \
  "$pager_version" "kPagerFormatCurrent (src/storage/pager.h)"

# 3b (cont.). The kind-dependent layout docs/FORMAT.md states follows
#     the FeatureKind enum (src/features/feature_vector.h),
#     FeatureKindName and FeatureColumnName (feature_vector.cc): §6.1's
#     quantization table is N × 24 B over ordinals (0–N−1) with N =
#     kNumFeatureKinds, and §8's KEY_FRAMES list has one row per kind,
#     in ordinal order, at position 7 + ordinal, naming the kind's
#     FeatureColumnName, which must be `FEAT_<FeatureKindName>` plus an
#     optional revision number. Two must-fail probes: one raises
#     kNumFeatureKinds by one in a temp copy of the header, the other
#     drops the Gabor column's revision in a temp copy of
#     feature_vector.cc; the comparison must reject both.
kind_strings() {  # kind_strings <.cc> <function>: "kKind <string>" per case
  sed -n "/^const char\* $2(/,/^}/p" "$1" \
    | awk '/case FeatureKind::/ {k = $2; sub(/^FeatureKind::/, "", k)
                                 sub(/:$/, "", k)}
           /return "/ && k != "" {split($0, q, "\""); print k, q[2]; k = ""}'
}
kind_layout_errors() {  # kind_layout_errors <header> <.cc>: one line per mismatch
  local n rows doc_rows
  n=$(code_version "$1" kNumFeatureKinds)
  [[ "$(doc_version '\| 72 \| [0-9]+' )" == "$n" ]] \
    || echo "§6.1 quantization table is not $n × 24 B"
  [[ "$(doc_version '\(0–[0-9]+')" == "$((n - 1))" ]] \
    || echo "§6.1 ordinal range is not (0–$((n - 1)))"
  rows=$( { sed -n '/^enum class FeatureKind/,/^};/p' "$1" \
              | grep -oE '^ *k[A-Za-z]+ = [0-9]+' | tr -d ' ' | tr '=' ' '
            echo; kind_strings "$2" FeatureKindName
            echo; kind_strings "$2" FeatureColumnName; } \
         | awk -v n="$n" '
             !NF {section++; next}
             section == 0 {kind[NR] = $1; ord[NR] = $2; count = NR; next}
             section == 1 {name[$1] = $2; next}
             {column[$1] = $2}
             END {
               if (count != n) print "enum has " count " kinds"
               for (i = 1; i <= count; ++i) {
                 k = kind[i]
                 if (ord[i] != i - 1) print "enum ordinals are not 0..n-1"
                 if (column[k] !~ ("^FEAT_" name[k] "[0-9]*$"))
                   print "column " column[k] " of " k " is not FEAT_" \
                         name[k] " plus a revision"
                 printf "| %d | `%s` | `%s` = %d |\n", 7 + ord[i],
                        column[k], k, ord[i]
               }
             }')
  doc_rows=$(awk '/^## 8/ {on = 1} on && /^\| [0-9]+ \| `FEAT_/' docs/FORMAT.md)
  [[ "$rows" == "$doc_rows" ]] \
    || echo "§8 KEY_FRAMES feature columns differ from the FeatureKind" \
            "enum: expected" $'\n'"$rows"
}
kinds_h=src/features/feature_vector.h
kinds_cc=src/features/feature_vector.cc
layout_errors=$(kind_layout_errors "$kinds_h" "$kinds_cc")
[[ -z "$layout_errors" ]] \
  || err "docs/FORMAT.md kind layout is stale:" $'\n'"$layout_errors"
probe=$(mktemp)
kinds=$(code_version "$kinds_h" kNumFeatureKinds)
sed -E "s/(kNumFeatureKinds = )[0-9]+/\1$((kinds + 1))/" "$kinds_h" > "$probe"
[[ -n "$(kind_layout_errors "$probe" "$kinds_cc")" ]] \
  || err "KIND-LAYOUT PROBE DID NOT FIRE: a changed kNumFeatureKinds" \
         "passed the check"
sed -E 's/"FEAT_gabor[0-9]+"/"FEAT_gabor"/' "$kinds_cc" > "$probe"
[[ -n "$(kind_layout_errors "$kinds_h" "$probe")" ]] \
  || err "KIND-LAYOUT PROBE DID NOT FIRE: a Gabor column without its" \
         "revision passed the check"
rm -f "$probe"

# 3c. DESIGN.md's lock-level list (`kServer=10 < kEngineWriter=15 <
#     ...`) is the LockLevel enum of src/util/lock_order.h, name for
#     name and number for number. A must-fail probe renumbers one level
#     in a temp copy of the header and expects the comparison to reject
#     it.
lock_levels() {  # lock_levels <header>: "kName=N ..." of the enum
  sed -n '/^enum class LockLevel/,/^};/p' "$1" \
    | grep -oE '^ *k[A-Za-z]+ = [0-9]+' | tr -d ' ' | grep -v '^kUnranked=' \
    | paste -sd' ' -
}
doc_lock_levels() {  # doc_lock_levels: "kName=N ..." quoted in DESIGN.md
  grep -oE 'k[A-Z][A-Za-z]+=[0-9]+' DESIGN.md | paste -sd' ' -
}
lock_levels_match() {  # lock_levels_match <header>
  [[ -n "$(lock_levels "$1")" && "$(lock_levels "$1")" == "$(doc_lock_levels)" ]]
}
lock_levels_match src/util/lock_order.h \
  || err "DESIGN.md lock levels ($(doc_lock_levels)) differ from the" \
         "LockLevel enum in src/util/lock_order.h ($(lock_levels src/util/lock_order.h))"
probe=$(mktemp)
sed -E 's/^( *kPager = [0-9]+)/\11/' src/util/lock_order.h > "$probe"
if lock_levels_match "$probe"; then
  err "LOCK-LEVEL PROBE DID NOT FIRE: a renumbered kPager passed the check"
fi
rm -f "$probe"

# 4. The CLIs the docs describe ship a --help handled by the shared
#    flags table (the anti-drift mechanism README/DESIGN point at).
for cli in examples/serve_cli.cpp examples/ingest_admin.cpp \
           examples/search_cli.cpp; do
  grep -q 'cli_flags.h' "$cli" || err "$cli does not use util/cli_flags.h"
done

# 5. Every bench target the docs name (an extensionless `bench/<name>`,
#    e.g. ./build/bench/micro_ingest) is a vr_add_bench(<name>) in
#    bench/CMakeLists.txt. A must-fail probe names the deleted
#    bench/micro_storage in a temp copy of a doc and expects exactly
#    that name to be rejected.
unbuilt_benches() {  # unbuilt_benches <doc>...: named targets not built
  { grep -ohE '(^|[^A-Za-z0-9_])bench/[A-Za-z0-9_*]+(\.[A-Za-z0-9]+)?' "$@" \
      || true; } | sed -E 's/^.?bench\///' | { grep -vE '[.*]' || true; } \
    | sort -u | while IFS= read -r name; do
        grep -qE "^vr_add_bench\($name\)" bench/CMakeLists.txt || echo "$name"
      done
}
unbuilt=$(unbuilt_benches "${DOCS[@]}")
[[ -z "$unbuilt" ]] \
  || err "docs name bench targets bench/CMakeLists.txt does not build:" $unbuilt
probe=$(mktemp)
{ cat EXPERIMENTS.md; echo '`./build/bench/micro_storage`'; } > "$probe"
[[ "$(unbuilt_benches "$probe")" == micro_storage ]] \
  || err "BENCH-TARGET PROBE DID NOT FIRE: a doc naming the deleted" \
         "bench/micro_storage passed the check"
rm -f "$probe"

# 6. Headline figures quoted in EXPERIMENTS.md agree with the committed
#    BENCH JSONs — the anti-drift gate for measured numbers. Each check
#    recomputes the doc's figure from the JSON it cites.
json_field() {  # json_field <file> <key>: first numeric value of key
  grep -oE "\"$2\": [0-9.]+" "$1" | head -1 | grep -oE '[0-9.]+$'
}
quoted_2dp() {  # quoted_2dp <value>: the doc quotes <value> to 2 decimals
  # A value like 16.965 rounds to 16.96 or 16.97 depending on the
  # rounding mode (and on FP representation), so accept both.
  local lo hi
  lo=$(awk -v v="$1" 'BEGIN{printf "%.2f", int(v*100)/100}')
  hi=$(awk -v v="$1" 'BEGIN{printf "%.2f", (int(v*100)+1)/100}')
  grep -qE "$(echo "$lo" | sed 's/\./\\./')|$(echo "$hi" | sed 's/\./\\./')" \
    EXPERIMENTS.md
}
if [[ -f BENCH_features.json ]]; then
  # The serial and the forked (caller + 1 helper) whole-bank times.
  for key in fused_total_ms forked_total_ms; do
    bank=$(json_field BENCH_features.json "$key")
    if [[ -z "$bank" ]]; then
      err "BENCH_features.json has no $key"
      continue
    fi
    quoted_2dp "$bank" \
      || err "EXPERIMENTS.md whole-bank extraction time ($key) drifted" \
             "from BENCH_features.json (expected ~$(awk -v v="$bank" \
             'BEGIN{printf "%.2f", v}') ms)"
  done
fi
if [[ -f BENCH_quality.json ]]; then
  # Table 1's equal-weight Combined row quotes the recorded precision
  # to 3 decimals at every cutoff.
  combined_row=$(grep -F '**Combined (equal weights)**' EXPERIMENTS.md || true)
  for v in $(grep -F '"method": "combined"' BENCH_quality.json \
             | grep -oE '[0-9]+\.[0-9]+'); do
    lo=$(awk -v v="$v" 'BEGIN{printf "%.3f", int(v*1000)/1000}')
    hi=$(awk -v v="$v" 'BEGIN{printf "%.3f", (int(v*1000)+1)/1000}')
    grep -qE "$(echo "$lo" | sed 's/\./\\./')|$(echo "$hi" | sed 's/\./\\./')" \
      <<<"$combined_row" \
      || err "EXPERIMENTS.md Table 1 Combined row does not quote $v" \
             "from BENCH_quality.json"
  done
fi
if [[ -f BENCH_scale.json ]]; then
  warm=$(grep -oE '"warm_open_ms": [0-9.]+' BENCH_scale.json | tail -1 \
         | grep -oE '[0-9.]+$')
  grep -q "$warm" EXPERIMENTS.md \
    || err "EXPERIMENTS.md corpus-scaling warm-open figure drifted from" \
           "BENCH_scale.json (expected $warm ms)"
  # The two-stage figures at the largest corpus: the doc must quote the
  # staged p50 and the staged median must beat the exact scan it claims
  # to beat (the same invariant micro_scale --smoke gates in CI).
  staged=$(grep -oE '"two_stage": \{"p50_ms": [0-9.]+' BENCH_scale.json \
           | tail -1 | grep -oE '[0-9.]+$')
  exact=$(grep -oE '"exact": \{"p50_ms": [0-9.]+' BENCH_scale.json \
          | tail -1 | grep -oE '[0-9.]+$')
  quoted_2dp "$staged" \
    || err "EXPERIMENTS.md corpus-scaling two-stage p50 drifted from" \
           "BENCH_scale.json (expected ~$staged ms)"
  awk -v s="$staged" -v e="$exact" 'BEGIN{exit !(s <= e)}' \
    || err "BENCH_scale.json two-stage p50 ($staged ms) loses to the" \
           "exact scan ($exact ms) at the largest corpus"
fi

# 6b. The bulk-ingest speedups and commit times, the ablation tables
#     and the per-extractor and per-intermediate extraction times quote
#     their records: each row of BENCH_ingest.json and BENCH_ablation.json,
#     and each extractors[] and intermediates[] entry of
#     BENCH_features.json, has a table row "| <label> | ..." in its
#     EXPERIMENTS.md section whose value cell quotes the recorded
#     figure (either rounding). A must-fail probe raises the first
#     recorded figure by two units of the quoted precision in a temp
#     copy of each record and expects that row to be rejected.
unquoted_rows() {  # unquoted_rows <json> <section> <label-key> <value-key>
                   #   <column> <decimals>: labels the doc does not quote
  local body
  body=$(awk -v h="## $2" 'index($0, h) == 1 {on = 1; next} /^## / {on = 0}
                           on' EXPERIMENTS.md)
  sed -nE "s/.*\"$3\": \"([^\"]+)\".*\"$4\": ([0-9.]+).*/\1\t\2/p" "$1" \
    | while IFS=$'\t' read -r label value; do
        cell=$(awk -F'|' -v l=" $label " -v c="$5" \
                 '$2 == l {gsub(/[ x]/, "", $(c + 1)); print $(c + 1); exit}' \
                 <<<"$body")
        awk -v v="$value" -v got="$cell" -v d="$6" 'BEGIN {
              s = 10 ^ d; f = "%." d "f"
              exit !(got == sprintf(f, int(v * s) / s) ||
                     got == sprintf(f, (int(v * s) + 1) / s)) }' \
          || echo "$label"
      done
}
check_record() {  # check_record <json> <section> <label-key> <value-key>
                  #   <column> <decimals>
  if [[ ! -f "$1" ]]; then
    err "missing record $1"
    return
  fi
  local bad probe
  bad=$(unquoted_rows "$@")
  [[ -z "$bad" ]] \
    || err "EXPERIMENTS.md § $2 does not quote $1 for:" \
           "$(paste -sd ';' <<<"$bad")"
  probe=$(mktemp)
  awk -v k="\"$4\": " -v d="$6" '
    !done && match($0, k "[0-9.]+") {
      v = substr($0, RSTART + length(k), RLENGTH - length(k))
      $0 = substr($0, 1, RSTART - 1) k sprintf("%.6f", v + 2 / 10 ^ d) \
           substr($0, RSTART + RLENGTH)
      done = 1
    } {print}' "$1" > "$probe"
  [[ -n "$(unquoted_rows "$probe" "${@:2}")" ]] \
    || err "RECORD PROBE DID NOT FIRE: a raised $4 in a copy of $1" \
           "passed the check"
  rm -f "$probe"
}
check_record BENCH_ingest.json "Bulk ingest" config speedup 4 2
check_record BENCH_ingest.json "Bulk ingest" config commit_ms_per_video 5 2
check_record BENCH_ablation.json "Ablations" label precision_at_20 2 3
check_record BENCH_features.json "Feature extraction" name fused_ms 2 2
check_record BENCH_features.json "Feature extraction" name ms 2 2

if [[ "$fail" -ne 0 ]]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "docs check clean"
