#!/usr/bin/env python3
"""vr-lint: project-invariant static analysis for the vretrieve tree.

Enforces invariants stock clang-tidy cannot express (rule table in
DESIGN.md § Static analysis & lint contract):

  R1  ignore-needs-comment   every Status::IgnoreError() call carries a
                             same-line justification comment
  R2  raw-concurrency        no raw std::mutex / std::shared_mutex /
                             std::condition_variable / std::lock_guard /
                             std::unique_lock / std::scoped_lock /
                             std::shared_lock / std::thread outside
                             src/util/ — use the annotated vr:: wrappers
  R3  unranked-lock          long-lived vr::Mutex / vr::SharedMutex
                             members declare a LockLevel
  R4a no-printf              no printf/fprintf/fputs/puts in library
                             code outside the logger
  R4b no-time-rand           no rand()/srand()/std::time() in library
                             code — randomness goes through vr::Rng
  R4c no-naked-new           no naked `new` — allocations are owned by
                             unique_ptr/shared_ptr from birth
  R5  tracked-build-output   git tracks no build outputs (CMakeCache.txt,
                             CMakeFiles/, build.ninja, .ninja_*, *.a)

The compile-enforced half of R1 ([[nodiscard]] vr::Status +
-Werror=unused-result) and the runtime half of R3 (lock_order
validator) are driven by scripts/check_lint.sh, which also proves every
rule fires via the must-fail probes under tests/lint_probes/.

R5 judges paths, not lines: over the whole tree it checks every file
`git ls-files` reports (skipped with a notice outside a git checkout);
given explicit files, it checks their paths.

Modes: `--mode clang` tokenizes with libclang (python clang bindings +
compile_commands.json) for exact comment/string classification;
`--mode grep` uses the built-in lexer; `--mode auto` (default) prefers
clang and silently degrades to grep when the bindings are absent.

Escape hatch: a finding is suppressed when its line carries
`vr-lint: allow(<rule-id>)` in a comment — the pragma documents the
exception in place.

Exit status: 0 clean, 1 findings, 2 internal/usage error.
"""

import argparse
import os
import re
import subprocess
import sys

# --------------------------------------------------------------------
# Rule table
# --------------------------------------------------------------------

RAW_CONCURRENCY_TOKENS = [
    "std::mutex",
    "std::timed_mutex",
    "std::recursive_mutex",
    "std::shared_mutex",
    "std::shared_timed_mutex",
    "std::condition_variable",
    "std::condition_variable_any",
    "std::lock_guard",
    "std::scoped_lock",
    "std::unique_lock",
    "std::shared_lock",
    "std::thread",
    "std::jthread",
]

PRINTF_RE = re.compile(r"(?<![\w:])(?:std::)?(?:printf|fprintf|fputs|puts)\s*\(")
TIME_RAND_RE = re.compile(
    r"(?<![\w:])(?:std::)?(?:rand|srand|random|srandom|rand_r|drand48)\s*\("
    r"|(?<![\w:])(?:std::)?time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
)
NAKED_NEW_RE = re.compile(r"(?<![\w:])new\b(?!\s*\()")
NEW_OWNER_RE = re.compile(
    r"unique_ptr|shared_ptr|make_unique|make_shared|placement|::new"
)
IGNORE_ERROR_RE = re.compile(r"\.\s*IgnoreError\s*\(\s*\)")
# A long-lived lock member: optionally `mutable`, a (vr::-qualified)
# Mutex/SharedMutex type, a member-style name (trailing underscore) and
# no initializer — i.e. default-constructed, therefore kUnranked.
UNRANKED_LOCK_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:vr::)?(?:Mutex|SharedMutex)\s+\w+_\s*;"
)
ALLOW_RE = re.compile(r"vr-lint:\s*allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)")

SOURCE_EXTS = (".cc", ".h")


def in_dir(path, prefix):
    return path == prefix or path.startswith(prefix + os.sep)


def scope_library(path):
    """src/ only."""
    return in_dir(path, "src")


def scope_library_no_util(path):
    """src/, examples/ and bench/ — but not src/util/ (the wrappers)."""
    if in_dir(path, "src"):
        return not in_dir(path, os.path.join("src", "util"))
    return in_dir(path, "examples") or in_dir(path, "bench")


def scope_everywhere(path):
    return any(in_dir(path, d) for d in ("src", "examples", "bench", "tests"))


def scope_no_logger(path):
    if not in_dir(path, "src"):
        return False
    return os.path.basename(path) not in ("logging.h", "logging.cc")


class Rule:
    def __init__(self, rule_id, group, scope, check, summary, per_path=False):
        self.rule_id = rule_id
        self.group = group  # R1..R5, for --rules filtering
        self.scope = scope
        # fn(line_code, line_raw) -> message or None; for a per_path
        # rule, fn(path) -> message or None.
        self.check = check
        self.summary = summary
        self.per_path = per_path


def check_ignore_comment(code, raw):
    if not IGNORE_ERROR_RE.search(code):
        return None
    # The justification must live on the same line, after the call.
    tail = raw[IGNORE_ERROR_RE.search(code).end():]
    if "//" in tail or "/*" in tail:
        return None
    return (
        "IgnoreError() without a same-line justification comment; write "
        "`St().IgnoreError();  // <why dropping this error is safe>`"
    )


def check_raw_concurrency(code, raw):
    del raw
    for tok in RAW_CONCURRENCY_TOKENS:
        # Token match with identifier boundaries; std::thread must not
        # also fire on std::thread::hardware_concurrency's wrapper file
        # (scoping already excludes src/util/).
        for m in re.finditer(re.escape(tok), code):
            end = m.end()
            if end < len(code) and (code[end].isalnum() or code[end] == "_"):
                continue  # e.g. std::mutex_like
            return (
                f"raw {tok} outside src/util/ — use the annotated vr:: "
                "wrapper (vr::Mutex/vr::SharedMutex/vr::CondVar/"
                "vr::MutexLock/vr::Thread/ThreadPool) so the "
                "thread-safety and lock-order gates keep coverage"
            )
    return None


def check_unranked_lock(code, raw):
    del raw
    if UNRANKED_LOCK_RE.match(code):
        return (
            "long-lived lock member is default-constructed (kUnranked); "
            "declare its place in the hierarchy: "
            "`vr::Mutex mu_{LockLevel::kX, \"name\"};` "
            "(registry in src/util/lock_order.h)"
        )
    return None


def check_printf(code, raw):
    del raw
    if PRINTF_RE.search(code):
        return (
            "printf-family I/O in library code — route diagnostics "
            "through the logger (src/util/logging.h)"
        )
    return None


def check_time_rand(code, raw):
    del raw
    if TIME_RAND_RE.search(code):
        return (
            "C randomness / wall-clock seeding in library code — use "
            "vr::Rng (seeded, reproducible) or take the time as a "
            "parameter so callers control determinism"
        )
    return None


def check_naked_new(code, raw, prev_code=""):
    del raw
    # The owner may sit on the previous physical line
    # (`std::unique_ptr<T> p(\n    new T(...));`), so the ownership
    # search covers a two-line window.
    if NAKED_NEW_RE.search(code) and not NEW_OWNER_RE.search(
            prev_code + " " + code):
        return (
            "naked `new` — wrap the allocation in std::unique_ptr/"
            "std::shared_ptr so ownership is never in flight"
        )
    return None


def check_build_output(path):
    parts = path.split("/")
    name = parts[-1]
    if "CMakeFiles" in parts[:-1]:
        what = "a CMakeFiles/ tree"
    elif name in ("CMakeCache.txt", "build.ninja"):
        what = name
    elif name.startswith(".ninja_"):
        what = "ninja state"
    elif name.endswith(".a"):
        what = "a static library"
    else:
        return None
    return (
        f"tracked build output ({what}) — build into an ignored build*/ "
        "directory and `git rm --cached` it"
    )


RULES = [
    Rule("ignore-needs-comment", "R1", scope_everywhere, check_ignore_comment,
         "IgnoreError() carries a same-line justification"),
    Rule("raw-concurrency", "R2", scope_library_no_util, check_raw_concurrency,
         "no raw std concurrency primitives outside src/util/"),
    Rule("unranked-lock", "R3", scope_library, check_unranked_lock,
         "long-lived locks declare a LockLevel"),
    Rule("no-printf", "R4", scope_no_logger, check_printf,
         "no printf-family I/O outside the logger"),
    Rule("no-time-rand", "R4", scope_library, check_time_rand,
         "no rand()/time() randomness outside vr::Rng"),
    Rule("no-naked-new", "R4", scope_library, check_naked_new,
         "no naked new"),
    Rule("tracked-build-output", "R5", scope_everywhere, check_build_output,
         "git tracks no build outputs", per_path=True),
]


# --------------------------------------------------------------------
# Lexing: classify comments and string literals so rules only see code.
# --------------------------------------------------------------------

def strip_noncode(lines):
    """Returns (code_lines, allow_sets): each code line with comments and
    string/char literal *contents* blanked, plus the per-line set of
    allow()-pragma rule ids (pragmas live in comments, so they are
    collected before blanking)."""
    code_lines = []
    allow_sets = []
    in_block = False
    for raw in lines:
        allows = set()
        out = []
        i, n = 0, len(raw)
        # Pragmas anywhere on the line count (they are comment text).
        for m in ALLOW_RE.finditer(raw):
            for rid in m.group(1).split(","):
                allows.add(rid.strip())
        while i < n:
            if in_block:
                end = raw.find("*/", i)
                if end < 0:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = raw[i]
            nxt = raw[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                break  # rest of line is comment
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch in ("\"", "'"):
                quote = ch
                out.append(quote)
                i += 1
                while i < n:
                    if raw[i] == "\\":
                        i += 2
                        continue
                    if raw[i] == quote:
                        out.append(quote)
                        i += 1
                        break
                    i += 1
                continue
            out.append(ch)
            i += 1
        code_lines.append("".join(out))
        allow_sets.append(allows)
    return code_lines, allow_sets


# --------------------------------------------------------------------
# libclang mode (optional): exact token classification.
# --------------------------------------------------------------------

def clang_code_lines(path, lines):
    """Rebuilds per-line code text from libclang tokens (comments and
    literal contents excluded). Returns None when libclang is unusable."""
    try:
        from clang import cindex  # noqa: deferred import by design
    except ImportError:
        return None
    try:
        index = cindex.Index.create()
        tu = index.parse(path, args=["-std=c++20", "-Isrc", "-fsyntax-only"],
                         options=cindex.TranslationUnit.PARSE_SKIP_FUNCTION_BODIES * 0)
        code = [""] * len(lines)
        per_line = {}
        for tok in tu.get_tokens(extent=tu.cursor.extent):
            if tok.kind == cindex.TokenKind.COMMENT:
                continue
            spelling = tok.spelling
            if tok.kind == cindex.TokenKind.LITERAL and (
                    spelling.startswith('"') or spelling.startswith("'")):
                spelling = spelling[0] + spelling[-1]
            line = tok.location.line - 1
            if 0 <= line < len(lines):
                per_line.setdefault(line, []).append(spelling)
        for line, toks in per_line.items():
            code[line] = " ".join(toks)
        return code
    except Exception:
        return None


# --------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------

def iter_files(root, explicit):
    if explicit:
        for f in explicit:
            yield os.path.relpath(os.path.abspath(f), root)
        return
    for top in ("src", "examples", "bench", "tests"):
        top_dir = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(top_dir):
            dirnames.sort()
            rel_dir = os.path.relpath(dirpath, root)
            # The probes violate the rules on purpose.
            if rel_dir.startswith(os.path.join("tests", "lint_probes")):
                continue
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(rel_dir, name)


def lint_file(root, rel_path, mode, groups, findings, all_scopes=False):
    abs_path = os.path.join(root, rel_path)
    try:
        with open(abs_path, encoding="utf-8", errors="replace") as fh:
            raw_lines = fh.read().splitlines()
    except OSError as exc:
        print(f"vr-lint: cannot read {rel_path}: {exc}", file=sys.stderr)
        return False
    code_lines = None
    if mode in ("auto", "clang"):
        code_lines = clang_code_lines(abs_path, raw_lines)
        if code_lines is None and mode == "clang":
            print("vr-lint: libclang unavailable but --mode clang forced",
                  file=sys.stderr)
            sys.exit(2)
    _, allow_sets = strip_noncode(raw_lines)
    if code_lines is None:
        code_lines, allow_sets = strip_noncode(raw_lines)
    active = [r for r in RULES
              if r.group in groups and not r.per_path
              and (all_scopes or r.scope(rel_path.replace(os.sep, "/")))]
    if not active:
        return True
    for lineno, (code, raw) in enumerate(zip(code_lines, raw_lines), start=1):
        allows = allow_sets[lineno - 1] if lineno - 1 < len(allow_sets) else set()
        prev_code = code_lines[lineno - 2] if lineno >= 2 else ""
        for rule in active:
            if rule.rule_id in allows:
                continue
            if rule.rule_id == "no-naked-new":
                msg = rule.check(code, raw, prev_code)
            else:
                msg = rule.check(code, raw)
            if msg:
                findings.append((rel_path, lineno, rule.rule_id, msg))
    return True


def tracked_files(root):
    """Paths git tracks under root, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "ls-files", "-z"], cwd=root,
                             capture_output=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    # The probes violate the rules on purpose.
    return [p for p in out.decode("utf-8", "replace").split("\0")
            if p and not p.startswith("tests/lint_probes/")]


def lint_paths(paths, groups, findings):
    for rule in RULES:
        if not rule.per_path or rule.group not in groups:
            continue
        for path in paths:
            msg = rule.check(path.replace(os.sep, "/"))
            if msg:
                findings.append((path, 1, rule.rule_id, msg))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*",
                        help="files to lint (default: the whole tree)")
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: the script's parent)")
    parser.add_argument("--mode", choices=("auto", "clang", "grep"),
                        default="auto")
    parser.add_argument("--rules", default="R1,R2,R3,R4,R5",
                        help="comma-separated rule groups to run")
    parser.add_argument("--all-scopes", action="store_true",
                        help="ignore per-rule path scoping (probe runs: "
                        "the must-fail probes live under tests/lint_probes/, "
                        "outside every rule's normal scope)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.group:3} {rule.rule_id:22} {rule.summary}")
        return 0

    groups = {g.strip() for g in args.rules.split(",") if g.strip()}
    findings = []
    ok = True
    for rel_path in iter_files(args.root, args.files):
        ok = lint_file(args.root, rel_path, args.mode, groups, findings,
                       args.all_scopes) and ok
    if not ok:
        return 2
    paths = [os.path.relpath(os.path.abspath(f), args.root)
             for f in args.files]
    if not paths:
        paths = tracked_files(args.root)
        if paths is None:
            print("vr-lint: not a git checkout; skipping R5", file=sys.stderr)
            paths = []
    lint_paths(paths, groups, findings)
    for path, lineno, rule_id, msg in findings:
        print(f"{path}:{lineno}: [{rule_id}] {msg}")
    if findings:
        print(f"vr-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
