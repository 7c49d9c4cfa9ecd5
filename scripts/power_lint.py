#!/usr/bin/env python3
"""power-lint v2: repo-specific determinism & concurrency invariants.

Two engines over the same rule set:

  AST engine (default when available)
      Drives libclang Python bindings over every translation unit in
      build/compile_commands.json and matches rules against *cursors*, so a
      typedef'd std::unordered_map, a macro-expanded intrinsic, or a
      using-renamed std::thread cannot slip through spelling changes. CI pins
      this path (--mode=ast).

  Regex engine (--mode=regex / --regex-fallback, and the automatic fallback
      when libclang is absent)
      Line-based heuristics with per-file typedef/using alias tracking. The
      fallback for gcc-only hosts; float-reduce / task-noexcept use a
      brace-tracking lambda-region approximation here.

Rules:

  unordered-iter   No range-for iteration over std::unordered_{map,set,
                   multimap,multiset} (through any alias) in result-producing
                   code (src/). Hash-bucket order is an implementation detail
                   of the standard library: iterating it leaks that order
                   into emitted results, breaking the repo invariant that
                   every output is byte-identical across thread counts,
                   platforms, and stdlib versions. Membership tests are fine;
                   to walk contents, copy into a vector and sort, or use
                   std::map / a flat container.

  raw-random       No std::rand / srand / random_device / time(...) seeding
                   outside util/rng.*. All randomness flows through the
                   seeded power::Rng so every run is reproducible from its
                   config.

  naked-thread     No std::thread / std::async / std::jthread outside
                   util/parallel.{h,cc}. All parallelism goes through the
                   deterministic ThreadPool/ParallelFor substrate, whose
                   chunking keeps results thread-count-invariant.

  wall-clock       No std::chrono::{system,steady,high_resolution}_clock
                   outside util/stopwatch.h. Simulated time — crowd latency,
                   HIT expiry, retry backoff — flows through SimClock
                   (platform/sim_clock.h): a wall-clock read anywhere in the
                   simulation makes results scheduler-dependent.

  raw-simd         No raw SSE/AVX intrinsics (`_mm*` calls, `__m128/256/512`
                   values) outside src/sim/simd_kernels*. Vector code lives
                   behind the dispatched kernel API with a scalar reference
                   and a differential test.

  raw-arena        No raw aligned/page allocation calls (aligned_alloc,
                   posix_memalign, memalign, valloc, mmap, munmap, madvise)
                   in src/ outside util/arena.{h,cc}: alignment, hugepage
                   opt-in, fallback, and ASan poisoning stay in one audited
                   place.

  float-reduce     No compound assignment (+= -= *= /=) on a floating-point
                   variable captured from outside a ParallelFor / pool-task
                   lambda (src/ and bench/, outside util/parallel.*). FP
                   addition does not commute: a shared accumulator makes the
                   result depend on chunk interleaving (and is a data race).
                   Accumulate per chunk into a chunk-indexed buffer and fold
                   in chunk order (the ParallelForChunked idiom), or carry an
                   order-insensitivity allow(). Subscripted element updates
                   (out[i] += ...) are chunk-partitioned by convention and
                   left to the TSan gate.

  task-noexcept    No obviously throw-capable calls inside a ParallelFor /
                   pool-task lambda (src/ and bench/, outside
                   util/parallel.*): `throw`, container .at(), std::sto*.
                   Pool tasks run noexcept — an escaping exception hits the
                   worker loop and aborts the process. Pre-validate inputs,
                   or use operator[] with POWER_CHECK.

  env-read         No std::getenv / secure_getenv outside util/env.{h,cc},
                   and no ato{i,f,l,ll} anywhere in src/, bench/ or
                   examples/: knobs
                   resolve through the typed util/env.h accessors (range
                   validation, malformed-input warnings, POWER_VERBOSE
                   resolved-value logging, one documented registry); data
                   parses through power::ParseInt/ParseDouble, which reject
                   what atoi silently turns into 0.

  raw-io           No raw file *writes* in src/ outside util/snapshot.{h,cc}:
                   no std::ofstream / std::fstream, no fopen/freopen with a
                   write mode, no open(2)/creat(2) with O_WRONLY/O_RDWR/
                   O_CREAT/O_APPEND/O_TRUNC. Durable state persists through
                   the snapshot layer so every write inherits the
                   write-temp + fsync + atomic-rename + CRC discipline — an
                   ad-hoc write can tear on crash and silently corrupt a
                   resume. Read-only opens are fine; bench/ report emitters
                   are out of scope.

  stale-allow      Every `power-lint: allow(<rule>)` must suppress at least
                   one live finding for <rule> on its line or the line below.
                   An allow that suppresses nothing is dead armor — the code
                   it excused has moved or been fixed — and is itself an
                   error (not suppressible; delete or move the comment).

Suppression: a line, or the line directly above it, containing
    power-lint: allow(<rule>)
disables <rule> for that line, and should carry a short justification.

Usage:
    scripts/power_lint.py [--compile-commands build/compile_commands.json]
                          [--mode auto|ast|regex] [--regex-fallback]
                          [--budget-seconds N] [--no-summary]
                          [ROOT ...]  # default roots: src tests bench examples
Exit status:
    0  clean
    1  findings (or wall-time budget exceeded)
    2  usage error
    3  --mode=ast requested but libclang is unavailable (tool missing —
       distinct from a lint failure so gates can skip-with-notice)
"""

import argparse
import json
import os
import re
import shlex
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RULES = [
    "unordered-iter",
    "raw-random",
    "naked-thread",
    "wall-clock",
    "raw-simd",
    "raw-arena",
    "float-reduce",
    "task-noexcept",
    "env-read",
    "raw-io",
    "stale-allow",
]

ALLOW = re.compile(r"power-lint:\s*allow\(([a-z-]+)\)")

# ---------------------------------------------------------------------------
# Shared scoping helpers
# ---------------------------------------------------------------------------


def norm(rel):
    return rel.replace(os.sep, "/")


def in_src(rel):
    return norm(rel).startswith("src/")


def in_bench(rel):
    return norm(rel).startswith("bench/")


def in_examples(rel):
    return norm(rel).startswith("examples/")


def is_rule_home(rel, rule):
    """True when `rel` is the sanctioned home of the construct `rule` bans."""
    r = norm(rel)
    if rule == "raw-random":
        return bool(re.search(r"(^|/)util/rng\.(h|cc)$", r))
    if rule == "naked-thread":
        return bool(re.search(r"(^|/)util/parallel\.(h|cc)$", r))
    if rule == "wall-clock":
        return bool(re.search(r"(^|/)util/stopwatch\.h$", r))
    if rule == "raw-simd":
        return bool(re.search(r"(^|/)sim/simd_kernels[^/]*\.(h|cc)$", r))
    if rule == "raw-arena":
        return bool(re.search(r"(^|/)util/arena\.(h|cc)$", r))
    if rule == "env-read":
        return bool(re.search(r"(^|/)util/env\.(h|cc)$", r))
    if rule == "raw-io":
        return bool(re.search(r"(^|/)util/snapshot\.(h|cc)$", r))
    if rule in ("float-reduce", "task-noexcept"):
        return bool(re.search(r"(^|/)util/parallel\.(h|cc)$", r))
    return False


def rule_applies(rel, rule):
    """File scoping: which tree each rule polices (before home exemptions)."""
    if rule in ("unordered-iter", "raw-arena", "raw-io"):
        return in_src(rel)
    if rule in ("float-reduce", "task-noexcept"):
        return in_src(rel) or in_bench(rel)
    if rule == "env-read":
        # examples/ parse user-supplied flags: the same strict parsers apply.
        return in_src(rel) or in_bench(rel) or in_examples(rel)
    # raw-random / naked-thread / wall-clock / raw-simd: everywhere scanned
    # (tests and benches must not fork the determinism substrate either).
    return True


MESSAGES = {
    "unordered-iter": (
        "range-for over unordered container '{what}' — hash order leaks "
        "into results; sort first or use an ordered/flat container"),
    "raw-random": (
        "unseeded randomness / wall-clock seeding — use the seeded "
        "power::Rng (util/rng.h)"),
    "naked-thread": (
        "raw std::thread/std::async — all parallelism goes through "
        "ThreadPool/ParallelFor (util/parallel.h)"),
    "wall-clock": (
        "wall-clock read — simulated time goes through SimClock "
        "(platform/sim_clock.h); measure wall time only via Stopwatch "
        "(util/stopwatch.h)"),
    "raw-simd": (
        "raw SIMD intrinsic — vector code lives in src/sim/simd_kernels* "
        "behind the dispatched kernel API (sim/simd_kernels.h) with a "
        "scalar reference"),
    "raw-arena": (
        "raw aligned/page allocation — hot-path arrays allocate through "
        "arena::Alloc/ArenaVector (util/arena.h) so alignment, hugepage "
        "opt-in, and fallback stay in one audited place"),
    "float-reduce": (
        "floating-point accumulation into captured '{what}' inside a "
        "pool-task lambda — FP addition does not commute across chunk "
        "interleavings (and this is a data race); reduce per chunk into a "
        "chunk-indexed buffer and fold in chunk order, or justify with "
        "allow(float-reduce)"),
    "task-noexcept": (
        "throw-capable construct '{what}' inside a pool-task lambda — "
        "tasks run noexcept, an escaping exception aborts the worker; "
        "pre-validate inputs or use operator[] with POWER_CHECK"),
    "env-read": (
        "raw environment/number parsing '{what}' — POWER_* knobs resolve "
        "through the typed util/env.h accessors (EnvInt/EnvDouble/EnvBool/"
        "EnvEnum); data parses through power::ParseInt/ParseDouble"),
    "raw-io": (
        "raw file write '{what}' — durable state in src/ persists through "
        "the atomic snapshot layer (util/snapshot.h: write-temp + fsync + "
        "rename + CRC), never ad-hoc ofstream/fopen/open(2) writes that can "
        "tear on crash"),
    "stale-allow": (
        "allow({what}) suppresses nothing — the finding it excused is gone; "
        "delete the comment (stale suppressions hide future regressions)"),
}


class Allows:
    """Tracks every allow() comment and which ones actually suppressed."""

    def __init__(self):
        self.entries = {}  # (rel, line0) -> rule
        self.used = set()

    def scan_file(self, rel, lines):
        for idx, raw in enumerate(lines):
            m = ALLOW.search(raw)
            if m:
                self.entries[(rel, idx)] = m.group(1)

    def suppresses(self, rel, line0, rule):
        """allow() on the finding's line or the line above suppresses it."""
        for probe in (line0, line0 - 1):
            if self.entries.get((rel, probe)) == rule:
                self.used.add((rel, probe))
                return True
        return False

    def stale(self):
        for (rel, line0), rule in sorted(self.entries.items()):
            if (rel, line0) not in self.used:
                yield rel, line0 + 1, rule


class Findings:
    def __init__(self, allows):
        self.allows = allows
        self.items = []  # (rel, line, rule, msg)
        self.suppressed = {r: 0 for r in RULES}
        self._seen = set()

    def add(self, rel, line, rule, what=""):
        key = (rel, line, rule)
        if key in self._seen:
            return
        if self.allows.suppresses(rel, line - 1, rule):
            self._seen.add(key)
            self.suppressed[rule] += 1
            return
        self._seen.add(key)
        self.items.append((rel, line, rule,
                           MESSAGES[rule].format(what=what)))


def read_lines(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read().splitlines()


def strip_comments_and_strings(line):
    """Removes // comments and blanks out string/char literals (keeps len)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                if line[i] == "\\":
                    i += 1
                out.append(" ")
                i += 1
            if i < n:
                out.append(quote)
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Regex engine
# ---------------------------------------------------------------------------

UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<")
UNORDERED_ALIAS = re.compile(
    r"\b(?:using\s+([A-Za-z_]\w*)\s*=\s*(?:const\s+)?"
    r"std::unordered_(?:map|set|multimap|multiset)\s*<"
    r"|typedef\s+(?:const\s+)?std::unordered_(?:map|set|multimap|multiset)\b)")
TYPEDEF_TAIL = re.compile(r">\s*([A-Za-z_]\w*)\s*;")
RANGE_FOR = re.compile(r"\bfor\s*\(.*?:\s*([A-Za-z_][\w.\->]*)\s*\)")

RAW_RANDOM = re.compile(
    r"(?<![\w:])(?:std::)?(?:rand|srand)\s*\(|std::random_device\b"
    r"|(?<![\w:.])time\s*\(")
NAKED_THREAD = re.compile(r"\bstd::(?:thread|jthread|async)\b")
WALL_CLOCK = re.compile(
    r"\bstd::chrono::(?:system_clock|steady_clock|high_resolution_clock)\b")
RAW_SIMD = re.compile(r"\b_mm(?:256|512)?_\w+|\b__m(?:128|256|512)i?\b")
RAW_ARENA = re.compile(
    r"(?<![\w:])(?:std::)?"
    r"(?:aligned_alloc|posix_memalign|memalign|valloc|pvalloc"
    r"|mmap|munmap|madvise)\s*\(")
ENV_READ = re.compile(
    r"(?<![\w:.])(?:std::)?(?:getenv|secure_getenv)\s*\("
    r"|(?<![\w:.])(?:std::)?ato(?:i|f|l|ll)\s*\(")
# raw-io: writable stream types always; C-level opens only when provably
# write-capable (pure "r"/"rb" fopen and flag-free open(2) are reads).
RAW_IO_STREAM = re.compile(r"\bstd::(?:ofstream|fstream)\b")
RAW_IO_FOPEN = re.compile(r"(?<![\w:])(?:std::)?f(?:re)?open\s*\(")
# Mode literal checked on the raw (unstripped) line: read-only iff "r"/"rb".
FOPEN_READONLY = re.compile(r'f(?:re)?open\s*\([^()]*,\s*"rb?"\s*\)')
RAW_IO_OPEN_WRITE = re.compile(
    r"(?<![\w.])(?:::)?open(?:at|64)?\s*\((?:[^;]*?)"
    r"O_(?:WRONLY|RDWR|CREAT|APPEND|TRUNC)")
RAW_IO_CREAT = re.compile(r"(?<![\w:.])(?:::)?creat(?:64)?\s*\(")
POOL_CALL = re.compile(
    r"\bParallelFor(?:Chunked)?\s*\(|\b\w*[Pp]ool\w*\s*(?:\.|->)\s*Run\s*\(")
FLOAT_DECL = re.compile(r"\b(?:double|float)\s+[*&]?\s*([A-Za-z_]\w*)")
COMPOUND_ASSIGN = re.compile(r"(?<![\w\]\.\>])\b([A-Za-z_]\w*)\s*[-+*/]=[^=]")
THROWER = re.compile(
    r"(?<![\w\"])throw\b|(?:\.|->)\s*at\s*\(|\bstd::sto[a-z]+\s*\(")


def unordered_names(lines):
    """Names of variables/members/params with an unordered type, resolved
    through same-file `using X = std::unordered_*` / `typedef ... X` aliases.
    Heuristic and line-based (clang-format'd, one declaration per statement);
    the AST engine resolves the general case.
    """
    aliases = set()
    for raw in lines:
        line = strip_comments_and_strings(raw)
        if "unordered_" not in line:
            continue
        m = UNORDERED_ALIAS.search(line)
        if m:
            if m.group(1):  # using Alias = std::unordered_*<...>
                aliases.add(m.group(1))
            else:  # typedef std::unordered_*<...> Alias;
                t = TYPEDEF_TAIL.search(line)
                if t:
                    aliases.add(t.group(1))

    names = set()
    decl_patterns = [UNORDERED_DECL]
    if aliases:
        decl_patterns.append(
            re.compile(r"\b(?:" + "|".join(sorted(aliases)) + r")\s*[<&*\s]"))
    for raw in lines:
        line = strip_comments_and_strings(raw)
        for m in UNORDERED_DECL.finditer(line):
            depth = 0
            i = m.end() - 1
            while i < len(line):
                if line[i] == "<":
                    depth += 1
                elif line[i] == ">":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            tail = line[i + 1:]
            dm = re.match(r"[&*\s]*([A-Za-z_]\w*)", tail)
            if dm and dm.group(1) not in ("const",):
                names.add(dm.group(1))
        for alias in aliases:
            # `Alias name;` / `Alias& name` / `const Alias name = ...`
            am = re.search(
                r"\b" + re.escape(alias) + r"\s*[&*]?\s+([A-Za-z_]\w*)", line)
            if am and am.group(1) not in ("const",):
                names.add(am.group(1))

    # Propagate through reference bindings only: `const auto& s = c ? a : b;`
    # with a/b unordered makes s unordered too. Value bindings (`auto it =
    # m.find(k)`) are excluded — they are usually iterators/mapped values,
    # not the container. Fixpoint over the file (chains are short).
    auto_bind = re.compile(r"\bauto\s*&\s*([A-Za-z_]\w*)\s*=\s*(.+)")
    for _ in range(4):
        grew = False
        for raw in lines:
            line = strip_comments_and_strings(raw)
            m = auto_bind.search(line)
            if not m or m.group(1) in names:
                continue
            rhs_ids = set(re.findall(r"\b[A-Za-z_]\w*\b", m.group(2)))
            if rhs_ids & names:
                names.add(m.group(1))
                grew = True
        if not grew:
            break
    return names


def lambda_body_spans(lines):
    """Approximate (start_line0, end_line0) spans of lambda bodies passed to
    ParallelFor / pool Run calls, by paren- then brace-tracking from each
    call site. Good enough for this codebase's clang-format'd style; the AST
    engine computes exact extents.
    """
    text_lines = [strip_comments_and_strings(l) for l in lines]
    text = "\n".join(text_lines)
    # Map flat offsets back to line numbers.
    offsets = []
    pos = 0
    for l in text_lines:
        offsets.append(pos)
        pos += len(l) + 1

    def line_of(off):
        lo, hi = 0, len(offsets) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if offsets[mid] <= off:
                lo = mid
            else:
                hi = mid - 1
        return lo

    spans = []
    for m in POOL_CALL.finditer(text):
        open_paren = text.find("(", m.end() - 1)
        if open_paren < 0:
            continue
        depth = 1
        i = open_paren + 1
        while i < len(text) and depth > 0:
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
            i += 1
        call_extent = text[open_paren:i]
        # Lambdas inside the call: `[` capture `]` (params)? `{` body `}`.
        for lm in re.finditer(r"\[[^\[\]]*\]", call_extent):
            j = lm.end()
            while j < len(call_extent) and call_extent[j] in " \n":
                j += 1
            if j < len(call_extent) and call_extent[j] == "(":
                pd = 1
                j += 1
                while j < len(call_extent) and pd > 0:
                    if call_extent[j] == "(":
                        pd += 1
                    elif call_extent[j] == ")":
                        pd -= 1
                    j += 1
                while j < len(call_extent) and call_extent[j] in " \n":
                    j += 1
                # Skip specifiers like mutable / noexcept / -> T.
                sm = re.match(r"(?:[\w:<>,&*\s]|->)*", call_extent[j:])
                if sm and "{" in call_extent[j + sm.end() - 1: j + sm.end()]:
                    j += sm.end() - 1
                else:
                    j += sm.end() if sm else 0
            if j >= len(call_extent) or call_extent[j] != "{":
                nb = call_extent.find("{", j)
                if nb < 0:
                    continue
                j = nb
            bd = 1
            k = j + 1
            while k < len(call_extent) and bd > 0:
                if call_extent[k] == "{":
                    bd += 1
                elif call_extent[k] == "}":
                    bd -= 1
                k += 1
            start = line_of(open_paren + j)
            end = line_of(open_paren + k)
            spans.append((start, end))
    return spans


def regex_check_file(path, rel, findings):
    try:
        lines = read_lines(path)
    except OSError as e:
        findings.items.append((rel, 0, "io", str(e)))
        return
    findings.allows.scan_file(rel, lines)

    if rule_applies(rel, "unordered-iter"):
        names = unordered_names(lines)
        for idx, raw in enumerate(lines):
            line = strip_comments_and_strings(raw)
            for m in RANGE_FOR.finditer(line):
                expr = m.group(1)
                base = re.split(r"[.\->]", expr)[0]
                if base in names or expr in names:
                    findings.add(rel, idx + 1, "unordered-iter", expr)

    pool_spans = []
    needs_spans = (
        (rule_applies(rel, "float-reduce") or rule_applies(rel,
                                                           "task-noexcept"))
        and not is_rule_home(rel, "float-reduce"))
    if needs_spans:
        pool_spans = lambda_body_spans(lines)

    def in_pool_span(idx):
        return any(s <= idx <= e for s, e in pool_spans)

    float_names = {}
    if pool_spans:
        for idx, raw in enumerate(lines):
            line = strip_comments_and_strings(raw)
            for m in FLOAT_DECL.finditer(line):
                float_names.setdefault(m.group(1), idx)

    for idx, raw in enumerate(lines):
        line = strip_comments_and_strings(raw)
        if not is_rule_home(rel, "raw-random") and RAW_RANDOM.search(line):
            findings.add(rel, idx + 1, "raw-random")
        if not is_rule_home(rel, "naked-thread") and NAKED_THREAD.search(line):
            findings.add(rel, idx + 1, "naked-thread")
        if not is_rule_home(rel, "wall-clock") and WALL_CLOCK.search(line):
            findings.add(rel, idx + 1, "wall-clock")
        if not is_rule_home(rel, "raw-simd") and RAW_SIMD.search(line):
            findings.add(rel, idx + 1, "raw-simd")
        if (rule_applies(rel, "raw-arena") and
                not is_rule_home(rel, "raw-arena") and
                RAW_ARENA.search(line)):
            findings.add(rel, idx + 1, "raw-arena")
        if (rule_applies(rel, "env-read") and
                not is_rule_home(rel, "env-read")):
            m = ENV_READ.search(line)
            if m:
                findings.add(rel, idx + 1, "env-read", m.group(0).strip("( "))
        if rule_applies(rel, "raw-io") and not is_rule_home(rel, "raw-io"):
            m = RAW_IO_STREAM.search(line)
            if m:
                findings.add(rel, idx + 1, "raw-io", m.group(0))
            elif RAW_IO_FOPEN.search(line) and not FOPEN_READONLY.search(raw):
                findings.add(rel, idx + 1, "raw-io", "fopen")
            else:
                m = RAW_IO_OPEN_WRITE.search(line) or RAW_IO_CREAT.search(line)
                if m:
                    findings.add(rel, idx + 1, "raw-io",
                                 m.group(0).split("(")[0].strip(": "))
        if in_pool_span(idx):
            if rule_applies(rel, "float-reduce"):
                for m in COMPOUND_ASSIGN.finditer(line):
                    name = m.group(1)
                    decl_line = float_names.get(name)
                    if decl_line is None:
                        continue  # not provably floating in regex mode
                    if in_pool_span(decl_line):
                        continue  # lambda-local accumulator
                    findings.add(rel, idx + 1, "float-reduce", name)
            if rule_applies(rel, "task-noexcept"):
                tm = THROWER.search(line)
                if tm:
                    findings.add(rel, idx + 1, "task-noexcept",
                                 tm.group(0).strip("( "))


# ---------------------------------------------------------------------------
# AST engine (libclang)
# ---------------------------------------------------------------------------

LIBCLANG_HINTS = [
    "libclang.so",
    "libclang-19.so.1", "libclang-18.so.1", "libclang-17.so.1",
    "libclang-16.so.1", "libclang-15.so.1", "libclang-14.so.1",
    "/usr/lib/llvm-19/lib/libclang.so.1",
    "/usr/lib/llvm-18/lib/libclang.so.1",
    "/usr/lib/llvm-17/lib/libclang.so.1",
    "/usr/lib/llvm-16/lib/libclang.so.1",
    "/usr/lib/llvm-15/lib/libclang.so.1",
    "/usr/lib/llvm-14/lib/libclang.so.1",
]


def load_libclang():
    """Returns (cindex_module, None) or (None, reason)."""
    try:
        from clang import cindex  # noqa: PLC0415
    except ImportError as e:
        return None, f"python bindings unavailable ({e})"
    override = os.environ.get("POWER_LIBCLANG")
    candidates = [override] if override else [None] + LIBCLANG_HINTS
    last = "no candidate library loaded"
    for cand in candidates:
        try:
            if cand is not None:
                cindex.Config.loaded = False
                cindex.Config.set_library_file(cand)
            cindex.Index.create()
            return cindex, None
        except Exception as e:  # noqa: BLE001 — cindex raises various types
            last = str(e)
            continue
    return None, f"libclang shared library unavailable ({last})"


UNORDERED_TYPES = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<")
CLOCK_NAMES = ("system_clock", "steady_clock", "high_resolution_clock")
ARENA_CALLS = {"aligned_alloc", "posix_memalign", "memalign", "valloc",
               "pvalloc", "mmap", "munmap", "madvise"}
ENV_CALLS = {"getenv", "secure_getenv", "atoi", "atof", "atol", "atoll"}
RANDOM_CALLS = {"rand", "srand", "time"}
THROWER_CALLS = {"at", "stoi", "stol", "stoll", "stoul", "stoull", "stof",
                 "stod", "stold"}
POOL_CALL_NAMES = {"ParallelFor", "ParallelForChunked", "Run"}
FLOAT_TYPES = {"float", "double", "long double"}
# raw-io: free-function opens (member .open() is typed via the stream decl).
IO_OPEN_CALLS = {"open", "open64", "openat", "openat64"}
IO_WRITE_CALLS = {"fopen", "freopen", "creat", "creat64"}
IO_WRITE_FLAGS = re.compile(r"\bO_(?:WRONLY|RDWR|CREAT|APPEND|TRUNC)\b")
IO_STREAM_TYPES = re.compile(r"\bstd::basic_(?:ofstream|fstream)\b")


class AstEngine:
    def __init__(self, cindex, repo, compile_commands, roots, findings):
        self.cx = cindex
        self.repo = repo
        self.compile_commands = compile_commands
        self.roots = roots
        self.findings = findings
        self.index = cindex.Index.create()
        self.K = cindex.CursorKind
        self.scanned_headers = set()
        self.fallback_files = []

    # -- helpers ----------------------------------------------------------

    def rel_of(self, location):
        if location is None or location.file is None:
            return None
        p = os.path.abspath(location.file.name)
        rel = os.path.relpath(p, self.repo)
        if rel.startswith(".."):
            return None
        top = norm(rel).split("/", 1)[0]
        if top not in self.roots:
            return None
        return rel

    def qualified(self, cursor):
        parts = []
        c = cursor
        while c is not None and c.kind != self.K.TRANSLATION_UNIT:
            if c.spelling:
                parts.append(c.spelling)
            c = c.semantic_parent
        return "::".join(reversed(parts))

    def canonical_type(self, cursor):
        try:
            t = cursor.type
            if t is None:
                return ""
            return t.get_canonical().spelling or ""
        except Exception:  # noqa: BLE001
            return ""

    # -- translation units ------------------------------------------------

    def tu_list(self):
        """(source_path, args) for every TU: from the compilation database
        when present, else every .cc under the roots with default args."""
        tus = []
        if self.compile_commands and os.path.exists(self.compile_commands):
            with open(self.compile_commands, encoding="utf-8") as f:
                for entry in json.load(f):
                    directory = entry.get("directory", ".")
                    src = os.path.normpath(
                        os.path.join(directory, entry["file"]))
                    if self.rel_of_path(src) is None:
                        continue
                    if "arguments" in entry:
                        argv = list(entry["arguments"])
                    else:
                        argv = shlex.split(entry.get("command", ""))
                    tus.append((src, self.filter_args(argv, src)))
        if not tus:
            inc = ["-I" + os.path.join(self.repo, "src"), "-std=c++20"]
            for root in self.roots:
                absroot = os.path.join(self.repo, root)
                for dirpath, _, filenames in os.walk(absroot):
                    for name in sorted(filenames):
                        if name.endswith((".cc", ".cpp")):
                            tus.append((os.path.join(dirpath, name),
                                        list(inc)))
            # Headers with no TU still need scanning in fixture trees.
            for root in self.roots:
                absroot = os.path.join(self.repo, root)
                for dirpath, _, filenames in os.walk(absroot):
                    for name in sorted(filenames):
                        if name.endswith((".h", ".hpp")):
                            tus.append((os.path.join(dirpath, name),
                                        list(inc) + ["-x", "c++-header"]))
        return tus

    def rel_of_path(self, p):
        rel = os.path.relpath(os.path.abspath(p), self.repo)
        if rel.startswith(".."):
            return None
        top = norm(rel).split("/", 1)[0]
        return rel if top in self.roots else None

    @staticmethod
    def filter_args(argv, src):
        """Compiler argv -> libclang parse args: drop the compiler, the
        source file, outputs, and dependency bookkeeping."""
        out = []
        skip_next = False
        for i, a in enumerate(argv):
            if i == 0:
                continue
            if skip_next:
                skip_next = False
                continue
            if a in ("-c",):
                continue
            if a in ("-o", "-MF", "-MT", "-MQ"):
                skip_next = True
                continue
            if a in ("-MD", "-MMD", "-M", "-MM"):
                continue
            if os.path.normpath(a) == os.path.normpath(src):
                continue
            out.append(a)
        return out

    # -- rule passes ------------------------------------------------------

    def run(self):
        for src, args in self.tu_list():
            try:
                tu = self.index.parse(src, args=args)
            except Exception as e:  # noqa: BLE001
                self.note_fallback(src, f"parse error: {e}")
                continue
            fatal = [d for d in tu.diagnostics if d.severity >= 4]
            if fatal:
                self.note_fallback(src, f"fatal diagnostic: {fatal[0]}")
                continue
            self.scan_tu(tu)
        return self.fallback_files

    def note_fallback(self, src, why):
        rel = self.rel_of_path(src)
        if rel is not None:
            print(f"power-lint: note: {rel}: AST parse failed ({why}); "
                  "falling back to the regex engine for this file",
                  file=sys.stderr)
            self.fallback_files.append(rel)

    def scan_tu(self, tu):
        K = self.K
        pool_spans = []  # (rel, start, end) lambda-body extents

        # Pass 1: pool-task lambda regions + allow() comments per file.
        for cursor in tu.cursor.walk_preorder():
            rel = self.rel_of(cursor.location)
            if rel is None:
                continue
            self.ensure_allows(rel)
            if cursor.kind == K.CALL_EXPR and \
                    cursor.spelling in POOL_CALL_NAMES:
                if cursor.spelling == "Run" and \
                        "ThreadPool" not in self.callee_parent(cursor):
                    continue
                for sub in cursor.walk_preorder():
                    if sub.kind == K.LAMBDA_EXPR:
                        srel = self.rel_of(sub.extent.start)
                        if srel is not None:
                            pool_spans.append(
                                (srel, sub.extent.start.line,
                                 sub.extent.end.line))

        def in_pool_span(rel, line):
            return any(r == rel and s <= line <= e
                       for r, s, e in pool_spans)

        # Pass 2: findings.
        for cursor in tu.cursor.walk_preorder():
            rel = self.rel_of(cursor.location)
            if rel is None:
                continue
            line = cursor.location.line
            kind = cursor.kind

            if kind == K.CXX_FOR_RANGE_STMT and \
                    rule_applies(rel, "unordered-iter"):
                expr = self.range_init(cursor)
                if expr is not None and \
                        UNORDERED_TYPES.search(self.canonical_type(expr)):
                    self.findings.add(rel, line, "unordered-iter",
                                      self.expr_text(expr))

            if kind == K.CALL_EXPR:
                name = cursor.spelling
                if name in RANDOM_CALLS and \
                        not is_rule_home(rel, "raw-random"):
                    self.findings.add(rel, line, "raw-random")
                if name in ("thread", "jthread", "async") and \
                        not is_rule_home(rel, "naked-thread") and \
                        "std" in self.callee_parent(cursor):
                    self.findings.add(rel, line, "naked-thread")
                if name.startswith("_mm") and \
                        not is_rule_home(rel, "raw-simd"):
                    self.findings.add(rel, line, "raw-simd")
                if name in ARENA_CALLS and \
                        rule_applies(rel, "raw-arena") and \
                        not is_rule_home(rel, "raw-arena"):
                    self.findings.add(rel, line, "raw-arena")
                if name in ENV_CALLS and \
                        rule_applies(rel, "env-read") and \
                        not is_rule_home(rel, "env-read"):
                    self.findings.add(rel, line, "env-read", name)
                if rule_applies(rel, "raw-io") and \
                        not is_rule_home(rel, "raw-io") and \
                        not self.callee_parent(cursor):  # free functions only
                    if name in IO_WRITE_CALLS or name in IO_OPEN_CALLS:
                        toks = [t.spelling for t in cursor.get_tokens()]
                        readonly = (
                            name in IO_OPEN_CALLS and
                            not IO_WRITE_FLAGS.search(" ".join(toks))) or (
                            name in ("fopen", "freopen") and
                            any(t in ('"r"', '"rb"') for t in toks))
                        if not readonly:
                            self.findings.add(rel, line, "raw-io", name)
                if in_pool_span(rel, line) and \
                        rule_applies(rel, "task-noexcept") and \
                        not is_rule_home(rel, "task-noexcept") and \
                        name in THROWER_CALLS:
                    self.findings.add(rel, line, "task-noexcept", name)

            if kind in (K.VAR_DECL, K.FIELD_DECL, K.PARM_DECL):
                ctype = self.canonical_type(cursor)
                if not is_rule_home(rel, "naked-thread") and \
                        re.search(r"\bstd::(?:thread|jthread)\b", ctype):
                    self.findings.add(rel, line, "naked-thread")
                if rule_applies(rel, "raw-io") and \
                        not is_rule_home(rel, "raw-io") and \
                        IO_STREAM_TYPES.search(ctype):
                    self.findings.add(rel, line, "raw-io",
                                      "std::ofstream/std::fstream")
                if not is_rule_home(rel, "raw-random") and \
                        "random_device" in ctype:
                    self.findings.add(rel, line, "raw-random")
                if not is_rule_home(rel, "raw-simd") and \
                        re.search(r"\b__m(?:128|256|512)", cursor.type.spelling
                                  if cursor.type else ""):
                    self.findings.add(rel, line, "raw-simd")

            if kind in (K.TYPE_REF, K.DECL_REF_EXPR):
                q = ""
                try:
                    if cursor.referenced is not None:
                        q = self.qualified(cursor.referenced)
                except Exception:  # noqa: BLE001
                    q = ""
                if not q:
                    q = cursor.spelling or ""
                if "chrono" in q and any(c in q for c in CLOCK_NAMES) and \
                        not is_rule_home(rel, "wall-clock"):
                    self.findings.add(rel, line, "wall-clock")

            if kind == K.CXX_THROW_EXPR and in_pool_span(rel, line) and \
                    rule_applies(rel, "task-noexcept") and \
                    not is_rule_home(rel, "task-noexcept"):
                self.findings.add(rel, line, "task-noexcept", "throw")

            if kind == K.COMPOUND_ASSIGNMENT_OPERATOR and \
                    in_pool_span(rel, line) and \
                    rule_applies(rel, "float-reduce") and \
                    not is_rule_home(rel, "float-reduce"):
                self.check_float_reduce(cursor, rel, line, pool_spans)

    def check_float_reduce(self, cursor, rel, line, pool_spans):
        if self.canonical_type(cursor) not in FLOAT_TYPES:
            return
        children = list(cursor.get_children())
        if not children:
            return
        lhs = children[0]
        # Only direct scalar references: subscripted element updates are
        # chunk-partitioned by convention (TSan owns those).
        ref = lhs
        while ref.kind == self.K.UNEXPOSED_EXPR:
            inner = list(ref.get_children())
            if not inner:
                break
            ref = inner[0]
        if ref.kind != self.K.DECL_REF_EXPR:
            return
        decl = ref.referenced
        if decl is None or decl.location is None:
            return
        drel = self.rel_of(decl.location)
        dline = decl.location.line if decl.location else 0
        declared_in_lambda = any(
            r == drel and s <= dline <= e for r, s, e in pool_spans)
        if declared_in_lambda:
            return
        self.findings.add(rel, line, "float-reduce", ref.spelling)

    def callee_parent(self, cursor):
        try:
            ref = cursor.referenced
            if ref is not None and ref.semantic_parent is not None:
                return self.qualified(ref.semantic_parent)
        except Exception:  # noqa: BLE001
            pass
        return ""

    def range_init(self, cursor):
        """The range-initializer expression of a CXXForRangeStmt."""
        for child in cursor.get_children():
            if child.kind == self.K.DECL_STMT:
                continue
            if child.kind == self.K.COMPOUND_STMT:
                return None  # reached the body without an init expr
            return child
        return None

    def expr_text(self, cursor):
        try:
            toks = [t.spelling for t in cursor.get_tokens()]
            return "".join(toks[:6]) or cursor.spelling or "<expr>"
        except Exception:  # noqa: BLE001
            return cursor.spelling or "<expr>"

    def ensure_allows(self, rel):
        if rel in self.scanned_headers:
            return
        self.scanned_headers.add(rel)
        try:
            self.findings.allows.scan_file(rel, read_lines(
                os.path.join(self.repo, rel)))
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def collect_files(repo, compile_commands, roots):
    files = set()
    if compile_commands and os.path.exists(compile_commands):
        with open(compile_commands, encoding="utf-8") as f:
            for entry in json.load(f):
                p = os.path.normpath(
                    os.path.join(entry.get("directory", "."), entry["file"]))
                rel = os.path.relpath(p, repo)
                if not rel.startswith(".."):
                    files.add(rel)
    for root in roots:
        absroot = os.path.join(repo, root)
        for dirpath, _, filenames in os.walk(absroot):
            for name in filenames:
                if name.endswith((".cc", ".h", ".cpp", ".hpp")):
                    files.add(os.path.relpath(
                        os.path.join(dirpath, name), repo))
    return sorted(files)


def print_summary(engine, elapsed, nfiles, findings):
    fired = {r: 0 for r in RULES}
    for _, _, rule, _ in findings.items:
        fired[rule] = fired.get(rule, 0) + 1
    print(f"power-lint summary (engine={engine}, {elapsed:.2f}s, "
          f"{nfiles} files):", file=sys.stderr)
    print(f"  {'rule':<16}{'findings':>9}{'suppressed':>12}", file=sys.stderr)
    for rule in RULES:
        print(f"  {rule:<16}{fired.get(rule, 0):>9}"
              f"{findings.suppressed.get(rule, 0):>12}", file=sys.stderr)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compile-commands",
                        default=os.path.join(REPO, "build",
                                             "compile_commands.json"),
                        help="compilation database to read the TU list from")
    parser.add_argument("--mode", choices=("auto", "ast", "regex"),
                        default="auto",
                        help="auto: AST when libclang is available, else "
                             "regex; ast: require libclang (exit 3 when "
                             "missing); regex: line-based engine")
    parser.add_argument("--regex-fallback", action="store_true",
                        help="alias for --mode=regex (hosts without "
                             "libclang)")
    parser.add_argument("--budget-seconds", type=float, default=0,
                        help="fail (exit 1) when the lint pass exceeds this "
                             "wall time; 0 disables")
    parser.add_argument("--no-summary", action="store_true",
                        help="suppress the per-rule summary table")
    parser.add_argument("roots", nargs="*", default=None,
                        help="directories to scan (default: src tests "
                             "bench examples)")
    args = parser.parse_args(argv)

    started = time.monotonic()
    repo = REPO
    roots = args.roots if args.roots else ["src", "tests", "bench",
                                           "examples"]
    # When pointed at a fixture tree (the lint's own test), treat the first
    # root's parent as the repo so src/-relative rules resolve there.
    if args.roots and os.path.isabs(args.roots[0]):
        repo = os.path.dirname(os.path.abspath(args.roots[0]))
        roots = [os.path.basename(os.path.abspath(r)) for r in args.roots]

    mode = "regex" if args.regex_fallback else args.mode
    cindex = None
    if mode in ("auto", "ast"):
        cindex, reason = load_libclang()
        if cindex is None:
            if mode == "ast":
                print(f"power-lint: AST mode required but {reason}",
                      file=sys.stderr)
                print("power-lint: install the clang python bindings and "
                      "libclang (see DESIGN.md §15), or run with "
                      "--regex-fallback", file=sys.stderr)
                return 3
            print(f"power-lint: note: {reason}; using the regex engine "
                  "(--mode=ast to make this an error)", file=sys.stderr)
            mode = "regex"
        else:
            mode = "ast"

    allows = Allows()
    findings = Findings(allows)
    files = collect_files(repo, args.compile_commands, roots)
    root_set = set(roots)
    files = [f for f in files if norm(f).split("/", 1)[0] in root_set]

    if mode == "ast":
        engine = AstEngine(cindex, repo, args.compile_commands, roots,
                           findings)
        fallback = engine.run()
        # Headers never included by any TU + files whose parse failed still
        # get the regex pass, so nothing silently escapes scanning.
        for rel in files:
            if rel in engine.scanned_headers and rel not in fallback:
                continue
            regex_check_file(os.path.join(repo, rel), rel, findings)
    else:
        for rel in files:
            regex_check_file(os.path.join(repo, rel), rel, findings)

    for rel, line, rule in allows.stale():
        # stale-allow is deliberately not suppressible: an allow() for it
        # would itself be stale armor.
        findings.items.append(
            (rel, line, "stale-allow", MESSAGES["stale-allow"].format(
                what=rule)))

    findings.items.sort()
    for rel, lineno, rule, msg in findings.items:
        print(f"{rel}:{lineno}: [{rule}] {msg}")

    elapsed = time.monotonic() - started
    if not args.no_summary:
        print_summary(mode, elapsed, len(files), findings)

    status = 0
    if findings.items:
        print(f"power-lint: {len(findings.items)} finding(s)",
              file=sys.stderr)
        status = 1
    else:
        print("power-lint: clean", file=sys.stderr)
    if args.budget_seconds > 0 and elapsed > args.budget_seconds:
        print(f"power-lint: wall time {elapsed:.1f}s exceeds the "
              f"{args.budget_seconds:.0f}s budget", file=sys.stderr)
        status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
