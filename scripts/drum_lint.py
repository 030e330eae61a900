#!/usr/bin/env python3
"""drum_lint — repo-specific static checks clang-tidy cannot express.

Checks run over src/, fuzz/, examples/, bench/, tools/, tests/ after
stripping comments and string literals (line numbers are preserved):

  naked-new        No `new` expressions. Ownership flows through
                   std::make_unique / containers; a naked new is either a
                   leak or a hand-rolled owner.
  libc-rand        No std::rand / srand / bare rand(). All randomness must
                   flow through util::Rng so every run is seed-reproducible
                   (the fuzzers and the simulator depend on it).
  unbounded-decode Any function that both reads wire integers (ByteReader
                   read_*) and sizes a container (reserve/resize) must
                   reference a max_* bound AND DecodeError: a fabricated
                   length field must hit a cap, not an allocation (the
                   paper's memory-DoS surface).
  raw-mutex        No std::mutex / std::shared_mutex / std::lock_guard /
                   std::unique_lock / std::scoped_lock / std::shared_lock /
                   std::condition_variable, and no #include <mutex> or
                   <shared_mutex>, outside drum/check/annotations.hpp.
                   The tree locks through the drum::check capability
                   wrappers (Mutex, MutexLock, ...) so Clang's
                   -Wthread-safety analysis sees every acquisition
                   (DESIGN.md §11). condition_variable_any is fine — it
                   waits on a MutexLock.
  naked-lock       No direct .lock()/.unlock()/.try_lock()/_shared calls
                   outside annotations.hpp. Locking is RAII-only: a naked
                   unlock is exactly the early-release pattern the
                   thread-safety analysis cannot prove safe.
  mutex-annotation Every namespace- or member-scope check::Mutex /
                   check::SharedMutex in src/ must have at least one
                   DRUM_GUARDED_BY / DRUM_PT_GUARDED_BY / DRUM_REQUIRES
                   user naming it (same file or the sibling .hpp/.cpp).
                   An unused capability is a lock whose protection story
                   exists only in the author's head. Function-local
                   mutexes can be suppressed with
                   `// drum-lint: allow(mutex-annotation)`.
  single-recv      No one-at-a-time Socket::recv() calls under
                   src/drum/core/ or src/drum/runtime/ — the protocol hot
                   path. The flood charges the victim per datagram; the
                   ingress pipeline (DESIGN.md §12) amortizes that cost
                   only if every hot-path drain goes through recv_batch()
                   (recvmmsg under UDP, one lock per chunk in mem).
                   Transport implementations (src/drum/net/) and the
                   low-rate membership control plane are out of scope.
  shard-affinity   No mutex acquisition — check:: wrappers included — in
                   shard-confined hot paths: any region bracketed by
                   `// drum-lint: shard-local` ... `// drum-lint:
                   shard-local end` (the sharded reactor's per-shard
                   dispatch/drain paths, DESIGN.md §13). A lock inside one
                   of these sections would silently reintroduce the
                   cross-thread serialization the sharding removed.
  sim-determinism  Protects the Monte-Carlo bit-identity contract
                   (DESIGN.md §9): inside src/drum/sim/, every draw from —
                   or handoff of — a main-stream Rng must be either
                   (a) inside a feature-gated block (an if/for whose
                   condition mentions zoo/scoring/attack/adv/greylist —
                   draws that never execute in a baseline run), or
                   (b) marked `// drum-lint: legacy-stream`, meaning it is
                   one of the audited draws the recorded RESULTS baselines
                   consume. The number of legacy-stream sites is frozen
                   (LEGACY_STREAM_SITES below): adding a draw to the
                   legacy stream silently re-randomizes every recorded
                   curve, so the constant must be bumped consciously and
                   the baselines re-blessed. Streams named adv* are exempt
                   — they are fork()-seeded behind a gate (which this
                   check also verifies), so they cannot perturb the
                   baseline stream.

A finding can be suppressed with `// drum-lint: allow(<rule>)` on the same
line (checked before stripping).

Self-tests: `drum_lint.py --self-test` runs every check against known-good
and known-bad snippets and exits nonzero on any mismatch (wired as a ctest).

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SCAN_DIRS = ["src", "fuzz", "examples", "bench", "tools", "tests"]
EXTS = {".cpp", ".hpp", ".cc", ".hh", ".h"}

# The annotated wrappers themselves must use the raw std types and the raw
# lock()/unlock() forwards — everything else must not. Their behavioral test
# probes the same surface (try_lock while held, manual BasicLockable cycles,
# size parity against std::mutex), so both are exempt from the locking
# checks.
ANNOTATIONS_HEADER = "src/drum/check/annotations.hpp"
LOCKING_EXEMPT = {ANNOTATIONS_HEADER, "tests/annotations_test.cpp"}

# Frozen count of `// drum-lint: legacy-stream` sites under src/drum/sim/.
# These are the audited draws/handoffs on the shared baseline Rng stream;
# every recorded RESULTS curve depends on their exact order and count.
# Adding one re-randomizes the baselines: bump this constant in the same
# commit, say why, and re-bless the recorded results.
LEGACY_STREAM_SITES = 20

ALLOW_RE = re.compile(r"//\s*drum-lint:\s*allow\(([a-z-]+)\)")
LEGACY_RE = re.compile(r"//\s*drum-lint:\s*legacy-stream\b")


def strip_code(text: str) -> str:
    """Blanks out comments, string and char literals, preserving newlines
    (so reported line numbers stay correct)."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def allowed_lines(raw: str, rule: str) -> set[int]:
    lines = set()
    for lineno, line in enumerate(raw.splitlines(), 1):
        m = ALLOW_RE.search(line)
        if m and m.group(1) == rule:
            lines.add(lineno)
    return lines


class SourceFile:
    """One scanned file: repo-relative path, raw text, stripped text."""

    def __init__(self, rel: str, raw: str):
        self.rel = rel
        self.raw = raw
        self.code = strip_code(raw)

    def allowed(self, rule: str) -> set[int]:
        return allowed_lines(self.raw, rule)


# ---------------------------------------------------------------------------
# shared structural helpers

FUNC_OPEN_RE = re.compile(r"^[^\s#].*\)\s*(?:const\s*)?\{", re.MULTILINE)


def function_bodies(code: str):
    """Yields (start_line, body_text) for top-ish-level function bodies,
    found by brace matching from definition-looking lines."""
    for m in FUNC_OPEN_RE.finditer(code):
        open_idx = code.index("{", m.start())
        depth = 0
        i = open_idx
        while i < len(code):
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        body = code[open_idx:i + 1]
        start_line = code.count("\n", 0, m.start()) + 1
        yield start_line, body


def match_paren(code: str, open_idx: int) -> int:
    """Index of the ')' matching the '(' at open_idx (or len(code))."""
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(code)


def match_brace(code: str, open_idx: int) -> int:
    """Index of the '}' matching the '{' at open_idx (or len(code))."""
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(code)


# ---------------------------------------------------------------------------
# checks

def check_naked_new(files, findings) -> None:
    pat = re.compile(r"(?<![_\w.])new\s+[\w:<(]")
    for f in files:
        ok = f.allowed("naked-new")
        for lineno, line in enumerate(f.code.splitlines(), 1):
            if pat.search(line) and lineno not in ok:
                findings.append(
                    f"{f.rel}:{lineno}: [naked-new] use std::make_unique or "
                    "a container, not a naked new")


def check_libc_rand(files, findings) -> None:
    pat = re.compile(r"(?:std::|(?<![_\w:.]))s?rand\s*\(")
    for f in files:
        ok = f.allowed("libc-rand")
        for lineno, line in enumerate(f.code.splitlines(), 1):
            if pat.search(line) and lineno not in ok:
                findings.append(
                    f"{f.rel}:{lineno}: [libc-rand] use util::Rng (seeded, "
                    "reproducible), not libc rand")


READS_WIRE_RE = re.compile(r"\bread_u(?:8|16|32|64)\b")
SIZES_CONTAINER_RE = re.compile(r"\.(?:reserve|resize)\s*\(")
BOUND_RE = re.compile(r"\bmax_\w+|\bkMax\w+")


def check_bounded_decode(files, findings) -> None:
    for f in files:
        ok = f.allowed("unbounded-decode")
        for start_line, body in function_bodies(f.code):
            if not (READS_WIRE_RE.search(body) and
                    SIZES_CONTAINER_RE.search(body)):
                continue
            if start_line in ok:
                continue
            if not BOUND_RE.search(body):
                findings.append(
                    f"{f.rel}:{start_line}: [unbounded-decode] wire-driven "
                    "reserve/resize without a max_* / kMax* cap")
            elif "DecodeError" not in body:
                findings.append(
                    f"{f.rel}:{start_line}: [unbounded-decode] wire-driven "
                    "allocation must throw DecodeError when the cap is hit")


RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable)\b")
RAW_MUTEX_INCLUDE_RE = re.compile(r"#\s*include\s*<(?:mutex|shared_mutex)>")


def check_raw_mutex(files, findings) -> None:
    for f in files:
        if f.rel in LOCKING_EXEMPT:
            continue
        ok = f.allowed("raw-mutex")
        for lineno, line in enumerate(f.code.splitlines(), 1):
            if lineno in ok:
                continue
            if RAW_MUTEX_RE.search(line) or RAW_MUTEX_INCLUDE_RE.search(line):
                findings.append(
                    f"{f.rel}:{lineno}: [raw-mutex] use the drum::check "
                    "capability wrappers (Mutex/MutexLock/...; "
                    "condition_variable_any for waits) so -Wthread-safety "
                    "sees the acquisition")


NAKED_LOCK_RE = re.compile(
    r"(?:\.|->)\s*(?:try_)?(?:lock|unlock)(?:_shared)?\s*\(\s*\)")


def check_naked_lock(files, findings) -> None:
    for f in files:
        if f.rel in LOCKING_EXEMPT:
            continue
        ok = f.allowed("naked-lock")
        for lineno, line in enumerate(f.code.splitlines(), 1):
            if lineno in ok:
                continue
            for _ in NAKED_LOCK_RE.finditer(line):
                findings.append(
                    f"{f.rel}:{lineno}: [naked-lock] lock with RAII "
                    "(check::MutexLock and friends), never a direct "
                    ".lock()/.unlock()")


MUTEX_DECL_RE = re.compile(
    r"(?:mutable\s+)?(?:check::|drum::check::)(?:Shared)?Mutex\s+"
    r"([A-Za-z_]\w*)\s*(?:;|\{)")


def _mutex_user_re(name: str) -> re.Pattern:
    return re.compile(
        r"DRUM_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|REQUIRES_SHARED|"
        r"ACQUIRE|ACQUIRE_SHARED|RELEASE|RELEASE_SHARED|TRY_ACQUIRE|"
        r"EXCLUDES|ASSERT_CAPABILITY|RETURN_CAPABILITY)"
        r"\s*\([^)]*\b" + re.escape(name) + r"\b[^)]*\)")


def check_mutex_annotation(files, findings) -> None:
    by_stem: dict[str, str] = {}
    for f in files:
        stem = re.sub(r"\.(cpp|hpp|cc|hh|h)$", "", f.rel)
        by_stem[stem] = by_stem.get(stem, "") + "\n" + f.raw
    for f in files:
        if not f.rel.startswith("src/") or f.rel == ANNOTATIONS_HEADER:
            continue
        ok = f.allowed("mutex-annotation")
        stem = re.sub(r"\.(cpp|hpp|cc|hh|h)$", "", f.rel)
        corpus = by_stem[stem]
        for lineno, line in enumerate(f.code.splitlines(), 1):
            m = MUTEX_DECL_RE.search(line)
            if not m or lineno in ok:
                continue
            name = m.group(1)
            if not _mutex_user_re(name).search(corpus):
                findings.append(
                    f"{f.rel}:{lineno}: [mutex-annotation] capability "
                    f"'{name}' has no DRUM_GUARDED_BY / DRUM_REQUIRES user "
                    "— declare what it protects (function-local mutexes: "
                    "suppress with // drum-lint: allow(mutex-annotation))")


SINGLE_RECV_RE = re.compile(r"(?:\.|->)\s*recv\s*\(\s*\)")
SINGLE_RECV_DIRS = ("src/drum/core/", "src/drum/runtime/")


def check_single_recv(files, findings) -> None:
    for f in files:
        if not f.rel.startswith(SINGLE_RECV_DIRS):
            continue
        ok = f.allowed("single-recv")
        for lineno, line in enumerate(f.code.splitlines(), 1):
            if lineno in ok:
                continue
            if SINGLE_RECV_RE.search(line):
                findings.append(
                    f"{f.rel}:{lineno}: [single-recv] one-at-a-time recv() "
                    "on the protocol hot path — drain through recv_batch() "
                    "so the ingress pipeline amortizes the per-datagram "
                    "cost (DESIGN.md §12)")


# --- shard-affinity --------------------------------------------------------

SHARD_LOCAL_MARK_RE = re.compile(r"//\s*drum-lint:\s*shard-local(\s+end)?\b")
# Anything that acquires (or is) a mutex: the drum::check capability
# wrappers, the raw std types (redundant with raw-mutex, but this check
# carries its own message), and naked .lock() calls.
SHARD_LOCK_RE = re.compile(
    r"\b(?:drum::)?check::(?:Mutex|SharedMutex|MutexLock|SharedMutexLock|"
    r"SharedLock)\b"
    r"|\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable)\b"
    r"|(?:\.|->)\s*(?:try_)?lock(?:_shared)?\s*\(")


def shard_local_lines(raw: str) -> set[int]:
    """Line numbers inside `// drum-lint: shard-local` ... `shard-local end`
    regions (markers live in comments, so they are read from the raw text)."""
    lines: set[int] = set()
    inside = False
    for lineno, line in enumerate(raw.splitlines(), 1):
        m = SHARD_LOCAL_MARK_RE.search(line)
        if m:
            inside = not m.group(1)  # begin opens, `end` closes
            continue
        if inside:
            lines.add(lineno)
    return lines


def check_shard_affinity(files, findings) -> None:
    for f in files:
        region = shard_local_lines(f.raw)
        if not region:
            continue
        ok = f.allowed("shard-affinity")
        for lineno, line in enumerate(f.code.splitlines(), 1):
            if lineno in ok or lineno not in region:
                continue
            if SHARD_LOCK_RE.search(line):
                findings.append(
                    f"{f.rel}:{lineno}: [shard-affinity] mutex acquisition "
                    "in a shard-local section — this path is single-thread-"
                    "confined by construction (DESIGN.md §13); a lock here "
                    "reintroduces cross-shard serialization")


# --- sim-determinism -------------------------------------------------------

DRAW_METHODS = {"chance", "below", "between", "uniform", "normal", "next",
                "fork", "sample_into", "shuffle"}
GATE_WORD_RE = re.compile(r"\b(?:zoo|scoring|attack\w*|adv\w*|greylist\w*)\b")
IDENT_RE = re.compile(r"\b([A-Za-z_]\w*)\b")
DECL_LINE_RE = re.compile(r"util::Rng\b|Rng\s*&")


def _is_rng_name(name: str) -> bool:
    return "rng" in name.lower() or name == "master"


def gated_regions(code: str) -> list[tuple[int, int]]:
    """Char ranges of if/for bodies whose condition mentions a feature-gate
    word — code that a baseline (no attack, no scoring) run never executes,
    so draws inside cannot perturb the legacy stream."""
    regions = []
    for m in re.finditer(r"\b(?:if|for|while)\s*\(", code):
        open_paren = code.index("(", m.start())
        close_paren = match_paren(code, open_paren)
        cond = code[open_paren:close_paren + 1]
        if not GATE_WORD_RE.search(cond):
            continue
        i = close_paren + 1
        while i < len(code) and code[i] in " \t\n":
            i += 1
        if i < len(code) and code[i] == "{":
            regions.append((i, match_brace(code, i)))
        else:  # braceless body: one statement
            end = code.find(";", i)
            regions.append((i, len(code) if end < 0 else end))
    return regions


def check_sim_determinism(files, findings,
                          legacy_budget: int = LEGACY_STREAM_SITES) -> None:
    legacy_sites = 0
    for f in files:
        if "/sim/" not in "/" + f.rel:
            continue
        ok = f.allowed("sim-determinism")
        regions = gated_regions(f.code)
        raw_lines = f.raw.splitlines()
        line_start = [0]
        for line in f.code.splitlines(keepends=True):
            line_start.append(line_start[-1] + len(line))

        for lineno, line in enumerate(f.code.splitlines(), 1):
            if lineno in ok:
                continue
            if DECL_LINE_RE.search(line):
                continue  # declarations / signatures, not draws
            legacy_here = lineno <= len(raw_lines) and LEGACY_RE.search(
                raw_lines[lineno - 1])
            for m in IDENT_RE.finditer(line):
                name = m.group(1)
                if not _is_rng_name(name):
                    continue
                rest = line[m.end():]
                mm = re.match(r"\s*(?:\.|->)\s*(\w+)\s*\(", rest)
                if mm:
                    if mm.group(1) not in DRAW_METHODS:
                        continue  # .reserve(), .push_back(), ...
                elif not re.match(r"\s*[,)]", rest):
                    continue  # not a draw, not an argument handoff
                if "adv" in name.lower():
                    continue  # forked adversary stream (seeding checked below)
                pos = line_start[lineno - 1] + m.start()
                if any(lo <= pos <= hi for lo, hi in regions):
                    continue  # feature-gated: never runs in a baseline trial
                if legacy_here:
                    legacy_sites += 1
                    continue
                findings.append(
                    f"{f.rel}:{lineno}: [sim-determinism] draw/handoff of "
                    f"main-stream Rng '{name}' outside a feature gate — new "
                    "randomness must come from a gated fork() (adv_* "
                    "pattern) or be consciously added to the frozen legacy "
                    "stream (// drum-lint: legacy-stream + bump "
                    "LEGACY_STREAM_SITES)")
                break  # one finding per line is enough

        # adversary streams must be seeded (forked) only behind a gate —
        # an unconditional fork would itself advance the legacy stream.
        for m in re.finditer(r"\b(\w*adv\w*)\s*=\s*\w+\s*\.\s*fork\s*\(",
                             f.code):
            lineno = f.code.count("\n", 0, m.start()) + 1
            if lineno in ok:
                continue
            if not any(lo <= m.start() <= hi for lo, hi in regions):
                findings.append(
                    f"{f.rel}:{lineno}: [sim-determinism] adversary stream "
                    f"'{m.group(1)}' forked outside a feature gate — the "
                    "fork itself is a draw on the legacy stream")

    if legacy_sites != legacy_budget:
        findings.append(
            f"src/drum/sim: [sim-determinism] {legacy_sites} legacy-stream "
            f"site(s), expected {legacy_budget} (LEGACY_STREAM_SITES) — the "
            "audited draw set changed; if intentional, bump the constant in "
            "scripts/drum_lint.py and re-bless the recorded baselines")


# ---------------------------------------------------------------------------
# registry + self-tests
#
# Each self-test is (files: {relpath: source}, expected: number of findings).
# Cases cover one known-bad and one known-good snippet per rule, plus the
# suppression syntax, so a regression in a check fails ctest before it lets
# a real violation through.

CHECKS = [
    ("naked-new", check_naked_new, [
        ({"src/a.cpp": "void f() { auto* p = new int(3); }\n"}, 1),
        ({"src/a.cpp": "void f() { auto p = std::make_unique<int>(3); }\n"},
         0),
        ({"src/a.cpp":
          "void f() { new int; }  // drum-lint: allow(naked-new)\n"}, 0),
    ]),
    ("libc-rand", check_libc_rand, [
        ({"src/a.cpp": "int f() { return std::rand(); }\n"}, 1),
        ({"src/a.cpp": "int f(util::Rng& r) { return r.next(); }\n"}, 0),
    ]),
    ("unbounded-decode", check_bounded_decode, [
        ({"src/a.cpp":
          "void f(ByteReader& r, std::vector<int>& v) {\n"
          "  v.resize(r.read_u32());\n}\n"}, 1),
        ({"src/a.cpp":
          "void f(ByteReader& r, std::vector<int>& v) {\n"
          "  auto n = r.read_u32();\n"
          "  if (n > kMaxPeers) throw DecodeError(\"cap\");\n"
          "  v.resize(n);\n}\n"}, 0),
    ]),
    ("raw-mutex", check_raw_mutex, [
        ({"src/a.hpp": "#include <mutex>\nstd::mutex m_;\n"}, 2),
        ({"src/a.hpp": "std::condition_variable cv_;\n"}, 1),
        ({"src/a.hpp":
          "#include \"drum/check/annotations.hpp\"\n"
          "check::Mutex m_;\nstd::condition_variable_any cv_;\n"
          "int x_ DRUM_GUARDED_BY(m_);\n"}, 0),
        ({"src/a.hpp":
          "std::mutex m_;  // drum-lint: allow(raw-mutex)\n"}, 0),
    ]),
    ("naked-lock", check_naked_lock, [
        ({"src/a.cpp": "void f() { mu_.lock(); mu_.unlock(); }\n"}, 2),
        ({"src/a.cpp": "void f() { check::MutexLock l(mu_); }\n"}, 0),
        ({"src/a.cpp":
          "void f() { mu_.lock(); }  // drum-lint: allow(naked-lock)\n"}, 0),
    ]),
    ("mutex-annotation", check_mutex_annotation, [
        ({"src/a.hpp": "class C {\n  check::Mutex mu_;\n  int x_ = 0;\n};\n"},
         1),
        ({"src/a.hpp":
          "class C {\n  check::Mutex mu_;\n"
          "  int x_ DRUM_GUARDED_BY(mu_) = 0;\n};\n"}, 0),
        # user in the sibling .cpp counts
        ({"src/a.hpp": "class C {\n  check::Mutex mu_;\n  void g();\n};\n",
          "src/a.cpp": "void C::g() DRUM_REQUIRES(mu_) {}\n"}, 0),
        ({"src/a.cpp":
          "void f() {\n"
          "  check::Mutex local;  // drum-lint: allow(mutex-annotation)\n"
          "}\n"}, 0),
        # outside src/ the rule does not apply (tests hold locals)
        ({"tests/a.cpp": "check::Mutex mu;\n"}, 0),
    ]),
    ("single-recv", check_single_recv, [
        # one-at-a-time drain in the hot path: finding
        ({"src/drum/core/a.cpp":
          "void f(Socket& s) { while (auto d = s.recv()) {} }\n"}, 1),
        ({"src/drum/runtime/a.cpp":
          "void f(Socket* s) { auto d = s->recv(); }\n"}, 1),
        # batched drain: clean
        ({"src/drum/core/a.cpp":
          "void f(Socket& s, Datagram* out) { s.recv_batch(out, 64); }\n"},
         0),
        # transports and the membership control plane are out of scope
        ({"src/drum/net/a.cpp":
          "void f(Socket& s) { while (auto d = s.recv()) {} }\n"}, 0),
        ({"src/drum/membership/a.cpp":
          "void f(Socket& s) { while (auto d = s.recv()) {} }\n"}, 0),
        # suppression syntax
        ({"src/drum/core/a.cpp":
          "void f(Socket& s) { s.recv(); }  "
          "// drum-lint: allow(single-recv)\n"}, 0),
    ]),
    ("shard-affinity", check_shard_affinity, [
        # marked region in any file: lock inside flagged, outside clean
        ({"src/drum/runtime/r.cpp":
          "void f(check::Mutex& m) {\n"
          "  // drum-lint: shard-local\n"
          "  check::MutexLock bad(m);\n"
          "  // drum-lint: shard-local end\n"
          "  check::MutexLock fine(m);\n}\n"}, 1),
        # naked .lock() counts as an acquisition too
        ({"src/drum/runtime/r.cpp":
          "void f() {\n"
          "  // drum-lint: shard-local\n"
          "  mu_.lock();\n"
          "  // drum-lint: shard-local end\n}\n"}, 1),
        # unmarked files are out of scope
        ({"src/drum/runtime/r.cpp":
          "void f(check::Mutex& m) { check::MutexLock l(m); }\n"}, 0),
        # suppression syntax
        ({"src/drum/runtime/r.cpp":
          "void f(check::Mutex& m) {\n"
          "  // drum-lint: shard-local\n"
          "  check::MutexLock l(m);  // drum-lint: allow(shard-affinity)\n"
          "  // drum-lint: shard-local end\n}\n"}, 0),
    ]),
    ("sim-determinism", check_sim_determinism, [
        # ungated, unannotated draw on the main stream: finding
        ({"src/drum/sim/x.cpp": "void f(util::Rng& rng) {\n"
          "  rng.chance(0.5);\n}\n"}, 1),
        # feature-gated draw: clean
        ({"src/drum/sim/x.cpp": "void f(util::Rng& rng, bool zoo) {\n"
          "  if (zoo) {\n    rng.chance(0.5);\n  }\n}\n"}, 0),
        # audited legacy site with matching budget: clean
        ({"src/drum/sim/x.cpp": "void f(util::Rng& rng) {\n"
          "  rng.chance(0.5);  // drum-lint: legacy-stream\n}\n"}, 0),
        # handoff (passing the stream into a helper) counts as a draw
        ({"src/drum/sim/x.cpp": "void f(util::Rng& rng) {\n"
          "  helper(1, rng);\n}\n"}, 1),
        # adversary stream forked inside a gate: clean
        ({"src/drum/sim/x.cpp":
          "void f(util::Rng& rng, bool zoo) {\n"
          "  util::Rng adv_rng(0);\n"
          "  if (zoo) {\n    adv_rng = rng.fork();\n  }\n"
          "  adv_rng.chance(0.5);\n}\n"}, 0),
        # adversary stream forked unconditionally: two findings — the
        # ungated rng.fork() draw itself, and the ungated adv seeding
        ({"src/drum/sim/x.cpp":
          "void f(util::Rng& rng) {\n"
          "  util::Rng adv_rng(0);\n"
          "  adv_rng = rng.fork();\n}\n"}, 2),
        # outside sim/ the rule does not apply
        ({"src/drum/core/x.cpp": "void f(util::Rng& rng) {\n"
          "  rng.chance(0.5);\n}\n"}, 0),
    ]),
]


def run_checks(files: list[SourceFile]) -> list[str]:
    findings: list[str] = []
    for _, fn, _ in CHECKS:
        fn(files, findings)
    return findings


def self_test() -> int:
    failures = 0
    for name, fn, cases in CHECKS:
        for i, (vfiles, expected) in enumerate(cases):
            files = [SourceFile(rel, text) for rel, text in vfiles.items()]
            findings: list[str] = []
            if fn is check_sim_determinism:
                # Virtual trees carry their own audited-site count.
                budget = sum(
                    len(LEGACY_RE.findall(text)) for text in vfiles.values())
                fn(files, findings, legacy_budget=budget)
            else:
                fn(files, findings)
            if len(findings) != expected:
                failures += 1
                print(f"SELF-TEST FAIL [{name} #{i}]: expected {expected} "
                      f"finding(s), got {len(findings)}:")
                for f in findings:
                    print(f"    {f}")
    total = sum(len(cases) for _, _, cases in CHECKS)
    status = "FAILED" if failures else "passed"
    print(f"drum_lint --self-test: {total - failures}/{total} cases {status}")
    return 1 if failures else 0


def main() -> int:
    if len(sys.argv) > 1:
        if sys.argv[1] == "--self-test":
            return self_test()
        print(__doc__)
        return 2
    root = Path(__file__).resolve().parent.parent
    files: list[SourceFile] = []
    for d in SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in EXTS:
                continue
            raw = path.read_text(encoding="utf-8", errors="replace")
            files.append(SourceFile(str(path.relative_to(root)), raw))
    findings = run_checks(files)
    for f in findings:
        print(f)
    print(f"drum_lint: {len(files)} files scanned, "
          f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
