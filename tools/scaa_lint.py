#!/usr/bin/env python3
"""scaa_lint: repo-specific invariant lint for the scaa tree.

The generic gates (-Wall/-Werror, clang -Wthread-safety, ASan/UBSan, TSan,
clang-tidy) prove memory and lock discipline; this lint enforces the
determinism invariants the paper's campaign statistics rest on, which no
generic tool knows about:

  nondeterminism      No rand()/srand()/std::random_device/time()/getenv()
                      /gettimeofday()/clock_gettime()/clock_nanosleep()
                      outside the blessed RNG-seeding layer (src/util/rng.*)
                      and the deadline-clock layer (src/util/deadline_clock.*
                      — the real-time executor's one wall-clock source, which
                      by contract never feeds a clock value into the
                      simulation). The CLI layer (src/cli/) is not blessed:
                      its seeds come from argv and its reports are
                      byte-exact goldens. Every simulation must be a pure
                      function of (scenario, strategy, seed); a stray
                      entropy or wall-clock source silently breaks
                      bit-reproducibility.

  unordered-iteration No iteration over std::unordered_* containers in
                      aggregation / serialization / report paths. Unordered
                      iteration order varies across libstdc++ versions and
                      hash seeds, so a fold or emit loop over one produces
                      run-to-run (or toolchain-to-toolchain) different
                      bytes. Ordered containers or index loops only.

  stray-output        No std::cout / std::cerr / printf-family output in
                      library code. stdout is machine-parsed report/bench
                      output and stderr carries progress and errors; both
                      belong to the CLI (src/cli/) alone. Library code
                      reports failures by return value or exception, so
                      nothing corrupts reports or interleaves across
                      threads.

  naked-accumulation  No ad-hoc floating-point accumulation loops in the
                      aggregation paths. Campaign statistics fold through
                      util::RunningStats / exp::AggregateAccumulator (the
                      util/serial-backed types with fixed chunk-order
                      merges); a naked `sum += x` loop reintroduces
                      fold-order-dependent float results.

  fault-entropy       src/fault/ draws every random draw from the
                      injector's forked stream (World stream id 17, handed
                      in by World/reset). Constructing a util::Rng
                      temporary, calling splitmix64(), or reaching for
                      std::<random> machinery inside src/fault/ seeds a
                      second stream, which silently decouples fault
                      firings from the world seed and breaks the
                      fresh-vs-reset / no-plan bit-identity guarantees.

Input is the build tree's compile_commands.json (CMake exports it —
CMAKE_EXPORT_COMPILE_COMMANDS is ON in this repo) plus every header under
src/. Findings print as `path:line: [rule] message` and make the exit code
non-zero; CI gates on it (lint job) and ctest runs it as lint.tree.

Escape hatches, in order of preference:
  1. Fix the code.
  2. A trailing or preceding-line comment `// scaa-lint: allow(<rule>)`
     for a single deliberate site.
  3. A file-level entry in tools/scaa_lint_allowlist.txt
     (`<rule> <path> <one-line justification>`) for a file that is
     wholesale exempt for a stated reason.

`--self-test` checks the rule engine against tests/lint_fixtures/: every
fixture declares its virtual path and the rules it must (or must not)
trigger in a header comment; ctest runs this as lint.self_test.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

RULES = (
    "nondeterminism",
    "unordered-iteration",
    "stray-output",
    "naked-accumulation",
    "fault-entropy",
)

# --- layer classification (repo-relative posix paths) -----------------------

# Blessed entropy/wall-clock layers: the RNG seeding implementation and the
# deadline clock (the real-time executor's pacing source — its clock values
# never enter the simulation).
NONDET_BLESSED = ("src/util/rng.", "src/util/deadline_clock.")

# Paths whose loops feed deterministic aggregates, serialized bytes, or
# report output: the fold-order rules apply here.
FOLD_PATHS = (
    "src/exp/",
    "src/cli/report.",
    "src/util/stats.",
    "src/util/serial.",
    "src/util/table.",
    "src/util/csv.",
    "src/msg/log.",
)

# The accumulator implementations themselves: the one place Welford updates
# and raw moment arithmetic are supposed to live.
ACCUMULATOR_IMPLS = ("src/util/stats.", "src/util/serial.")

# The fault-injection layer: all of its entropy comes from the one Rng
# World forks for it (stream id 17); it must never seed a stream itself.
FAULT_LAYER = "src/fault/"


def in_layer(path: str, prefixes) -> bool:
    return any(path.startswith(p) for p in prefixes)


# --- source preprocessing ---------------------------------------------------

def strip_comments_and_strings(text: str) -> str:
    """Blank out comments, string and char literals, preserving offsets.

    Every blanked character becomes a space so line/column numbers in the
    stripped text match the original exactly.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                if i + 1 < n:
                    out[i + 1] = " "
                i += 2
        elif c == '"' or c == "'":
            quote = c
            # Raw strings: R"delim( ... )delim"
            if quote == '"' and i > 0 and text[i - 1] == "R" and (
                i < 2 or not (text[i - 2].isalnum() or text[i - 2] == "_")
            ):
                m = re.match(r'"([^ ()\\\n]{0,16})\(', text[i:])
                if m:
                    end = text.find(")" + m.group(1) + '"', i)
                    end = n if end < 0 else end + len(m.group(1)) + 2
                    for j in range(i, min(end, n)):
                        if text[j] != "\n":
                            out[j] = " "
                    i = end
                    continue
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


def allowed_lines(raw_lines, rule: str):
    """Line numbers (1-based) suppressed for @p rule by the escape hatch:
    a `// scaa-lint: allow(rule[,rule...])` comment suppresses its own line
    and the line immediately after it."""
    allowed = set()
    hatch = re.compile(r"//\s*scaa-lint:\s*allow\(([^)]*)\)")
    for lineno, line in enumerate(raw_lines, start=1):
        m = hatch.search(line)
        if m and rule in [r.strip() for r in m.group(1).split(",")]:
            allowed.add(lineno)
            allowed.add(lineno + 1)
    return allowed


# --- rule engines -----------------------------------------------------------

# The `>` in the lookbehinds rejects member access (`obj->time()`); the
# identifier/`.` chars reject suffixed names and `.member` calls. libc
# time() always takes an argument (a pointer, possibly null), so requiring
# a non-`)` after the paren skips nullary members named `time` and their
# declarations without missing any real libc call.
NONDET_PATTERNS = (
    (re.compile(r"\b(?:std\s*::\s*)?random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w.>])(?:std\s*::\s*|::\s*)?srand\s*\("), "srand()"),
    (re.compile(r"(?<![\w.>])(?:std\s*::\s*|::\s*)?rand\s*\("), "rand()"),
    (re.compile(r"(?<![\w.>])(?:std\s*::\s*|::\s*)?time\s*\(\s*[^)\s]"),
     "time()"),
    (re.compile(r"(?<![\w.>])(?:std\s*::\s*|::\s*)?getenv\s*\("), "getenv()"),
    (re.compile(r"(?<![\w.>])(?:::\s*)?gettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"(?<![\w.>])(?:::\s*)?clock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"(?<![\w.>])(?:::\s*)?clock_nanosleep\s*\("),
     "clock_nanosleep()"),
)

STRAY_PATTERNS = (
    (re.compile(r"\bstd\s*::\s*cout\b"), "std::cout"),
    (re.compile(r"\bstd\s*::\s*cerr\b"), "std::cerr"),
    (re.compile(r"(?<![\w.:])(?:std\s*::\s*|::\s*)?printf\s*\("), "printf()"),
    (re.compile(r"(?<![\w.:])(?:std\s*::\s*|::\s*)?fprintf\s*\("), "fprintf()"),
    (re.compile(r"(?<![\w.:])(?:std\s*::\s*|::\s*)?puts\s*\("), "puts()"),
    (re.compile(r"(?<![\w.:])(?:std\s*::\s*|::\s*)?putchar\s*\("), "putchar()"),
)

UNORDERED_DECL = re.compile(r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\b")
RANGE_FOR = re.compile(
    r"\bfor\s*\([^;()]*?:\s*([A-Za-z_][\w.>\-]*)\s*\)"
)
# Only begin-family calls: iteration always needs one, while a bare
# .end() is usually a find() sentinel (legitimate O(1) lookup).
BEGIN_CALL = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*c?r?begin\s*\(")


def check_nondeterminism(path, stripped, findings):
    if in_layer(path, NONDET_BLESSED):
        return
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        for pattern, what in NONDET_PATTERNS:
            if pattern.search(line):
                findings.append((
                    path, lineno, "nondeterminism",
                    f"{what} in library code: simulations must derive all "
                    f"entropy from util::Rng seeds (blessed layers: "
                    f"{', '.join(NONDET_BLESSED)})",
                ))


def check_stray_output(path, stripped, findings):
    if path.startswith("src/cli/"):
        return
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        for pattern, what in STRAY_PATTERNS:
            if pattern.search(line):
                findings.append((
                    path, lineno, "stray-output",
                    f"{what} in library code: stdout and stderr belong to "
                    f"the CLI",
                ))


def unordered_identifiers(stripped: str):
    """Names declared in this file with a std::unordered_* type."""
    names = set()
    for m in UNORDERED_DECL.finditer(stripped):
        # Skip the template argument list (angle brackets may nest), then
        # take the next identifier as the declared name.
        i = m.end()
        n = len(stripped)
        while i < n and stripped[i].isspace():
            i += 1
        if i < n and stripped[i] == "<":
            depth = 0
            while i < n:
                if stripped[i] == "<":
                    depth += 1
                elif stripped[i] == ">":
                    depth -= 1
                    if depth == 0:
                        i += 1
                        break
                i += 1
        ident = re.match(r"\s*&?\s*([A-Za-z_]\w*)", stripped[i:])
        if ident:
            names.add(ident.group(1))
    return names


def check_unordered_iteration(path, stripped, findings):
    if not in_layer(path, FOLD_PATHS):
        return
    names = unordered_identifiers(stripped)
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        hits = set()
        for m in RANGE_FOR.finditer(line):
            base = re.split(r"[.>]|->", m.group(1))[-1] or m.group(1)
            first = re.match(r"[A-Za-z_]\w*", m.group(1))
            if (first and first.group(0) in names) or base in names:
                hits.add(m.group(1))
        for m in BEGIN_CALL.finditer(line):
            if m.group(1) in names:
                hits.add(m.group(1))
        for name in sorted(hits):
            findings.append((
                path, lineno, "unordered-iteration",
                f"iteration over std::unordered_* container '{name}' in a "
                f"deterministic fold/serialization path: unordered order "
                f"varies by hash seed and libstdc++ version; use an ordered "
                f"container or index loop",
            ))


FLOAT_DECL = re.compile(r"\b(?:double|float)\s+(?!.*\()\s*([A-Za-z_]\w*)")
FLOAT_DECL_SIMPLE = re.compile(r"\b(?:double|float)\s+([A-Za-z_]\w*)\s*(?:=|;|\{|,|\))")
LOOP_HEAD = re.compile(r"\b(?:for|while)\s*\(")


def loop_regions(stripped: str):
    """(start_offset, end_offset) of every for/while body, braces matched."""
    regions = []
    for m in LOOP_HEAD.finditer(stripped):
        i, n = m.end() - 1, len(stripped)
        depth = 0
        while i < n:  # skip the (...) head
            if stripped[i] == "(":
                depth += 1
            elif stripped[i] == ")":
                depth -= 1
                if depth == 0:
                    i += 1
                    break
            i += 1
        while i < n and stripped[i].isspace():
            i += 1
        if i >= n:
            continue
        start = i
        if stripped[i] == "{":
            depth = 0
            while i < n:
                if stripped[i] == "{":
                    depth += 1
                elif stripped[i] == "}":
                    depth -= 1
                    if depth == 0:
                        i += 1
                        break
                i += 1
        else:
            while i < n and stripped[i] != ";":
                i += 1
        regions.append((start, i))
    return regions


def check_naked_accumulation(path, stripped, findings):
    if not in_layer(path, FOLD_PATHS) or in_layer(path, ACCUMULATOR_IMPLS):
        return
    float_names = set(FLOAT_DECL_SIMPLE.findall(stripped))
    if not float_names:
        return
    line_of = [0]
    for off, ch in enumerate(stripped):
        if ch == "\n":
            line_of.append(off + 1)

    def lineno_at(offset):
        lo, hi = 0, len(line_of) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if line_of[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    accum = re.compile(
        r"\b([A-Za-z_]\w*)\s*(?:\+=(?!=)|-=(?!=)|=\s*\1\s*[+\-])"
    )
    seen = set()
    for start, end in loop_regions(stripped):
        for m in accum.finditer(stripped, start, end):
            name = m.group(1)
            if name not in float_names:
                continue
            lineno = lineno_at(m.start())
            if (lineno, name) in seen:
                continue
            seen.add((lineno, name))
            findings.append((
                path, lineno, "naked-accumulation",
                f"floating-point accumulation into '{name}' inside a loop: "
                f"campaign statistics must fold through util::RunningStats / "
                f"exp::AggregateAccumulator (fixed chunk-order merge), not "
                f"ad-hoc sums whose value depends on iteration order",
            ))


# `Rng` directly followed by `(` or `{` is a temporary / unnamed seeded
# construction; a named declaration (`util::Rng rng_{0};`, an `util::Rng rng`
# parameter) has an identifier between the type and the initializer and is
# how the injector legitimately *receives* its forked stream.
FAULT_ENTROPY_PATTERNS = (
    (re.compile(r"\bstd\s*::\s*(?:mt19937(?:_64)?|minstd_rand0?|"
                r"default_random_engine|knuth_b|ranlux\w+|\w+_distribution)\b"),
     "std::<random> machinery"),
    (re.compile(r"\bRng\s*[({]"), "a fresh util::Rng stream"),
    (re.compile(r"\bsplitmix64\s*\("), "splitmix64()"),
)


def check_fault_entropy(path, stripped, findings):
    if not path.startswith(FAULT_LAYER):
        return
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        for pattern, what in FAULT_ENTROPY_PATTERNS:
            if pattern.search(line):
                findings.append((
                    path, lineno, "fault-entropy",
                    f"{what} seeded inside src/fault/: the fault layer must "
                    f"draw all entropy from the injector's forked stream "
                    f"(World stream id 17); a second stream decouples fault "
                    f"firings from the world seed and breaks the "
                    f"fresh-vs-reset bit-identity guarantee",
                ))


CHECKS = {
    "nondeterminism": check_nondeterminism,
    "unordered-iteration": check_unordered_iteration,
    "stray-output": check_stray_output,
    "naked-accumulation": check_naked_accumulation,
    "fault-entropy": check_fault_entropy,
}


def lint_text(path: str, text: str):
    """All findings for one file (path is repo-relative posix)."""
    stripped = strip_comments_and_strings(text)
    raw_lines = text.splitlines()
    findings = []
    for rule, check in CHECKS.items():
        rule_findings = []
        check(path, stripped, rule_findings)
        allowed = allowed_lines(raw_lines, rule) if rule_findings else set()
        for f in rule_findings:
            if f[1] not in allowed:
                findings.append(f)
    findings.sort(key=lambda f: (f[0], f[1], f[2]))
    return findings


# --- allowlist --------------------------------------------------------------

def load_allowlist(path: Path):
    """{(rule, repo-relative-path)} entries; missing file means empty."""
    entries = {}
    if not path.exists():
        return entries
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 3:
            sys.exit(f"{path}:{lineno}: allowlist entry needs "
                     f"'<rule> <path> <justification>': {line!r}")
        rule, file_path, justification = parts
        if rule not in RULES:
            sys.exit(f"{path}:{lineno}: unknown rule {rule!r} "
                     f"(known: {', '.join(RULES)})")
        entries[(rule, file_path)] = justification
    return entries


# --- file discovery ---------------------------------------------------------

def discover_files(root: Path, compile_commands: Path | None):
    """Repo-relative paths to lint: every src/ TU named in
    compile_commands.json plus every header under src/."""
    files = set()
    if compile_commands is not None:
        try:
            entries = json.loads(compile_commands.read_text())
        except (OSError, json.JSONDecodeError) as e:
            sys.exit(f"scaa_lint: cannot read {compile_commands}: {e}")
        for entry in entries:
            p = Path(entry["file"])
            if not p.is_absolute():
                p = (Path(entry["directory"]) / p).resolve()
            try:
                rel = p.resolve().relative_to(root.resolve())
            except ValueError:
                continue  # external TU (e.g. gtest) — not ours to lint
            if rel.as_posix().startswith("src/"):
                files.add(rel.as_posix())
    for header in (root / "src").rglob("*.hpp"):
        files.add(header.relative_to(root).as_posix())
    return sorted(files)


# --- self-test over fixtures ------------------------------------------------

FIXTURE_HEADER = re.compile(
    r"//\s*scaa-lint-fixture:\s*as=(\S+)\s+expect=(\S+)"
)


def self_test(fixtures_dir: Path, verbose: bool) -> int:
    if not fixtures_dir.is_dir():
        print(f"scaa_lint --self-test: fixture directory {fixtures_dir} "
              f"missing", file=sys.stderr)
        return 1
    failures = 0
    seen_trigger = set()  # rules with >=1 must-trigger fixture
    seen_clean = set()    # rules with >=1 in-scope clean fixture
    fixtures = sorted(fixtures_dir.glob("*.cpp")) + sorted(
        fixtures_dir.glob("*.hpp"))
    if not fixtures:
        print(f"scaa_lint --self-test: no fixtures in {fixtures_dir}",
              file=sys.stderr)
        return 1
    for fixture in fixtures:
        text = fixture.read_text()
        m = FIXTURE_HEADER.search(text)
        if not m:
            print(f"FAIL {fixture.name}: missing "
                  f"'// scaa-lint-fixture: as=<path> expect=<rules|none>'")
            failures += 1
            continue
        virtual_path, expect = m.group(1), m.group(2)
        expected = set() if expect == "none" else set(expect.split(","))
        unknown = expected - set(RULES)
        if unknown:
            print(f"FAIL {fixture.name}: unknown rule(s) {sorted(unknown)}")
            failures += 1
            continue
        triggered = {f[2] for f in lint_text(virtual_path, text)}
        if triggered == expected:
            if verbose:
                print(f"PASS {fixture.name} ({expect})")
            seen_trigger |= expected
            if not expected:
                # A clean twin covers every rule its virtual path is
                # subject to.
                for rule in RULES:
                    probe = []
                    CHECKS[rule]  # rule exists
                    if rule == "nondeterminism" and not in_layer(
                            virtual_path, NONDET_BLESSED):
                        probe.append(rule)
                    if rule == "stray-output" and not virtual_path.startswith(
                            "src/cli/"):
                        probe.append(rule)
                    if rule in ("unordered-iteration", "naked-accumulation") \
                            and in_layer(virtual_path, FOLD_PATHS):
                        probe.append(rule)
                    if rule == "fault-entropy" and virtual_path.startswith(
                            FAULT_LAYER):
                        probe.append(rule)
                    seen_clean |= set(probe)
        else:
            print(f"FAIL {fixture.name}: expected {sorted(expected) or 'none'}"
                  f", triggered {sorted(triggered) or 'none'}")
            failures += 1
    for rule in RULES:
        if rule not in seen_trigger:
            print(f"FAIL coverage: no fixture triggers rule '{rule}'")
            failures += 1
        if rule not in seen_clean:
            print(f"FAIL coverage: no clean fixture in scope of rule '{rule}'")
            failures += 1
    total = len(fixtures)
    if failures:
        print(f"scaa_lint --self-test: {failures} failure(s) over {total} "
              f"fixtures")
        return 1
    print(f"scaa_lint --self-test: {total} fixtures OK, all {len(RULES)} "
          f"rules covered (trigger + clean)")
    return 0


# --- main -------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(
        description="scaa invariant lint (determinism & output discipline)")
    parser.add_argument("--compile-commands", type=Path, default=None,
                        help="build/compile_commands.json (from CMake); "
                             "omit to lint every src/ file by glob")
    parser.add_argument("--root", type=Path, default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the rule engine against "
                             "tests/lint_fixtures/ and exit")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args()

    script_dir = Path(__file__).resolve().parent
    root = (args.root or script_dir.parent).resolve()

    if args.self_test:
        return self_test(root / "tests" / "lint_fixtures", args.verbose)

    compile_commands = args.compile_commands
    if compile_commands is None:
        files = sorted(
            p.relative_to(root).as_posix()
            for suffix in ("*.cpp", "*.hpp")
            for p in (root / "src").rglob(suffix))
    else:
        files = discover_files(root, compile_commands)
        if not any(f.endswith(".cpp") for f in files):
            sys.exit(f"scaa_lint: no src/ translation units found via "
                     f"{compile_commands} — wrong build directory?")

    allowlist = load_allowlist(script_dir / "scaa_lint_allowlist.txt")
    used_allowlist = set()
    findings = []
    for rel in files:
        text = (root / rel).read_text()
        for f in lint_text(rel, text):
            key = (f[2], f[0])
            if key in allowlist:
                used_allowlist.add(key)
                continue
            findings.append(f)

    for path, lineno, rule, message in findings:
        print(f"{path}:{lineno}: [{rule}] {message}")

    stale = set(allowlist) - used_allowlist
    for rule, path in sorted(stale):
        print(f"tools/scaa_lint_allowlist.txt: stale entry ({rule}, {path}): "
              f"no finding suppressed — remove it", file=sys.stderr)

    if findings or stale:
        print(f"scaa_lint: {len(findings)} finding(s), {len(stale)} stale "
              f"allowlist entr{'y' if len(stale) == 1 else 'ies'} over "
              f"{len(files)} files", file=sys.stderr)
        return 1
    if args.verbose:
        for f in files:
            print(f"clean {f}")
    print(f"scaa_lint: {len(files)} files clean "
          f"({len(used_allowlist)} allowlist suppression(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
