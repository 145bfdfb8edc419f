#!/usr/bin/env bash
# vr-lint gate: project-invariant static analysis (rules R1–R5, table
# in DESIGN.md § Static analysis & lint contract) with must-fail
# probes. Order of business:
#
#   1. Probe sweep — every probe under tests/lint_probes/ must be
#      REJECTED by its rule. A probe that passes means the gate is
#      dead, and the script fails loudly (same philosophy as
#      tests/thread_safety_negative.cc).
#   2. Full-tree lint — scripts/vr_lint.py over src/, examples/,
#      bench/, tests/ (and, for R5, every path git tracks) must be
#      clean.
#   3. R1 compile probe — a dropped [[nodiscard]] vr::Status must not
#      compile under -Werror=unused-result (works under GCC *and*
#      Clang, so GCC-only legs keep full R1 coverage).
#   4. R3 runtime probe — an out-of-order lock acquisition must abort
#      under VR_LOCK_ORDER_DEBUG.
#
# vr_lint.py prefers libclang token classification and degrades to its
# built-in lexer when the clang python bindings are absent; the compile
# probes pick clang++ or g++, whichever exists. With neither compiler
# nor python3 the script skips itself with a notice (graceful-skip
# contract shared with check_static.sh).
#
# Usage: scripts/check_lint.sh
set -euo pipefail

cd "$(dirname "$0")/.."

if ! command -v python3 >/dev/null 2>&1; then
  echo "check_lint: python3 not found; skipping vr-lint gate" >&2
  exit 0
fi

LINT="python3 scripts/vr_lint.py"

# --- 1. Probe sweep: each lint probe must trip exactly its rule. -----
probe_must_fail() {
  local probe="$1" rule="$2" out
  PROBED_RULES="$PROBED_RULES $rule"
  if out=$($LINT --all-scopes "$probe" 2>&1); then
    echo "check_lint: FAIL: $probe passed the linter;" >&2
    echo "rule '$rule' is not firing — the gate is dead" >&2
    exit 1
  fi
  if ! grep -q "\[$rule\]" <<<"$out"; then
    echo "check_lint: FAIL: $probe was rejected for the wrong reason:" >&2
    echo "$out" >&2
    exit 1
  fi
}

PROBED_RULES=""
probe_must_fail tests/lint_probes/probe_r1_ignore_no_comment.cc ignore-needs-comment
probe_must_fail tests/lint_probes/probe_r2_raw_mutex.cc raw-concurrency
probe_must_fail tests/lint_probes/probe_r3_unranked_lock.cc unranked-lock
probe_must_fail tests/lint_probes/probe_r4_hygiene.cc no-printf
probe_must_fail tests/lint_probes/probe_r4_hygiene.cc no-time-rand
probe_must_fail tests/lint_probes/probe_r4_hygiene.cc no-naked-new
probe_must_fail tests/lint_probes/probe_r5_tracked_build_output/CMakeCache.txt \
  tracked-build-output

# A rule the linter knows but no probe exercises is a rule that can die
# silently. Fail the gate until the new rule ships with its probe.
while read -r _ rule _; do
  if ! grep -qw "$rule" <<<"$PROBED_RULES"; then
    echo "check_lint: FAIL: rule '$rule' has no must-fail probe;" >&2
    echo "add one under tests/lint_probes/ and register it above" >&2
    exit 1
  fi
done < <($LINT --list-rules)
echo "check_lint: lint probes OK (every rule fires)"

# --- 2. Full tree must be clean. -------------------------------------
$LINT
echo "check_lint: tree clean under rules R1-R5"

# --- Compile probes need a C++ compiler. -----------------------------
CXX=""
for candidate in clang++ g++ c++; do
  if command -v "$candidate" >/dev/null 2>&1; then
    CXX="$candidate"
    break
  fi
done
if [[ -z "$CXX" ]]; then
  echo "check_lint: no C++ compiler found; skipping compile probes" >&2
  exit 0
fi

# --- 3. R1 compile probe: dropped Status must not compile. -----------
probe_err=$(mktemp)
probe_bin=$(mktemp)
trap 'rm -f "$probe_err" "$probe_bin"' EXIT
if "$CXX" -std=c++20 -Isrc -fsyntax-only -Werror=unused-result \
    tests/lint_probes/probe_r1_discard_status.cc 2>"$probe_err"; then
  echo "check_lint: FAIL: probe_r1_discard_status.cc compiled cleanly;" >&2
  echo "[[nodiscard]] on vr::Status is not being enforced" >&2
  exit 1
fi
if ! grep -Eq "unused-result|nodiscard" "$probe_err"; then
  echo "check_lint: FAIL: R1 compile probe failed for the wrong reason:" >&2
  cat "$probe_err" >&2
  exit 1
fi
echo "check_lint: R1 compile probe OK (dropped Status rejected)"

# --- 4. R3 runtime probe: lock-order inversion must abort. -----------
"$CXX" -std=c++20 -Isrc -o "$probe_bin" \
  tests/lint_probes/probe_r3_lock_order_runtime.cc src/util/lock_order.cc \
  -lpthread
if VR_LOCK_ORDER_DEBUG=1 "$probe_bin" 2>"$probe_err"; then
  echo "check_lint: FAIL: lock-order inversion ran to completion;" >&2
  echo "the runtime validator is not firing" >&2
  exit 1
fi
if ! grep -q "lock-order violation" "$probe_err"; then
  echo "check_lint: FAIL: R3 runtime probe died for the wrong reason:" >&2
  cat "$probe_err" >&2
  exit 1
fi
# And the validator must stay quiet when disarmed — otherwise every
# production binary would be paying (and trusting) an unasked-for gate.
if ! VR_LOCK_ORDER_DEBUG=0 "$probe_bin" >/dev/null 2>&1; then
  echo "check_lint: FAIL: R3 probe aborted with the validator disarmed" >&2
  exit 1
fi
echo "check_lint: R3 runtime probe OK (inversion aborts when armed)"

echo "check_lint: all vr-lint checks clean"
